// Cross-workload determinism harness: the executable contract behind
// the parallel inter-op scheduler and plan fusion. Every registered
// workload's train + infer trajectory must be bit-identical (a) across
// two serial runs under the same WithSeed — the replay contract — (b)
// between serial execution and a 4-wide inter-op schedule — the
// scheduler contract — and (c) between fused and unfused plans — the
// fusion contract. Any future scheduler or compile change that perturbs
// RNG order, variable update order, slot lifetimes in the slab or an
// element's float32 op sequence fails this test for at least one of the
// ten workloads.
package models_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fuse"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/tensor"

	_ "repro/internal/models/all"
)

// fingerprint captures everything observable about a short workload
// trajectory: per-step training losses, the named inference outputs of
// a sampled batch (when the workload serves requests via Sampler), and
// the final bits of every graph variable.
type fingerprint struct {
	losses []float64
	infer  map[string][]float32
	vars   map[string][]float32
}

// workloadFingerprint builds a fresh instance of the workload and
// drives it through trainSteps optimizer updates and two self-feeding
// inference steps on a session of the given intra-op × inter-op
// widths and extra options, then snapshots the trajectory. Model config
// and session seed are fixed, so two calls differ only in those.
func workloadFingerprint(t *testing.T, name string, intraop, interop, trainSteps int, extra ...runtime.Option) fingerprint {
	t.Helper()
	m, err := core.New(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Setup(core.Config{Preset: core.PresetTiny, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	opts := []runtime.Option{
		runtime.WithSeed(11),
		runtime.WithIntraOpWorkers(intraop),
		runtime.WithInterOpWorkers(interop),
	}
	s := runtime.NewSession(m.Graph(), append(opts, extra...)...)
	defer s.Close()
	fp := fingerprint{infer: map[string][]float32{}, vars: map[string][]float32{}}
	tr, ok := m.(core.Trainer)
	if !ok {
		t.Fatalf("%s does not implement core.Trainer", name)
	}
	for i := 0; i < trainSteps; i++ {
		loss, err := tr.TrainStep(s)
		if err != nil {
			t.Fatalf("train step %d: %v", i, err)
		}
		fp.losses = append(fp.losses, loss)
	}
	// Self-feeding inference advances the same state (emulator, data
	// cursor, RNG) either path exercises.
	for i := 0; i < 2; i++ {
		if err := core.Step(m, s, core.ModeInference); err != nil {
			t.Fatalf("inference step %d: %v", i, err)
		}
	}
	// Request-driven inference fetches, when the workload samples
	// batches (deepq drives its emulator instead).
	if smp, ok := m.(core.Sampler); ok {
		inf := m.(core.Inferencer)
		outs, err := inf.Infer(s, smp.Sample())
		if err != nil {
			t.Fatalf("infer: %v", err)
		}
		for name, v := range outs {
			fp.infer[name] = append([]float32(nil), v.Data()...)
		}
	}
	for _, v := range m.Graph().Variables() {
		fp.vars[v.Name()] = append([]float32(nil), v.Value().Data()...)
	}
	return fp
}

// sameFloat32s compares bits, NaNs of any payload counting as equal;
// != would fail two identical NaNs and pass +0 against −0.
func sameFloat32s(a, b []float32) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if x, y := a[i], b[i]; math.Float32bits(x) != math.Float32bits(y) && !(x != x && y != y) {
			return i, false
		}
	}
	return 0, true
}

// compareFingerprints asserts bitwise equality of two trajectories.
func compareFingerprints(t *testing.T, label string, a, b fingerprint) {
	t.Helper()
	for i := range a.losses {
		if a.losses[i] != b.losses[i] {
			t.Fatalf("%s: step-%d loss %v != %v", label, i, a.losses[i], b.losses[i])
		}
	}
	if len(a.infer) != len(b.infer) {
		t.Fatalf("%s: inference outputs %d != %d", label, len(a.infer), len(b.infer))
	}
	names := make([]string, 0, len(a.infer))
	for n := range a.infer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if i, ok := sameFloat32s(a.infer[n], b.infer[n]); !ok {
			t.Fatalf("%s: inference output %q differs at element %d", label, n, i)
		}
	}
	if len(a.vars) != len(b.vars) {
		t.Fatalf("%s: variable count %d != %d", label, len(a.vars), len(b.vars))
	}
	for n, av := range a.vars {
		if i, ok := sameFloat32s(av, b.vars[n]); !ok {
			t.Fatalf("%s: variable %q differs at element %d", label, n, i)
		}
	}
}

// TestCrossWorkloadDeterminism is the suite-wide determinism harness:
// for all ten workloads, serial replay under WithSeed is bit-exact,
// every intra-op × inter-op width combination — real parallel kernel
// chunks crossed with the parallel plan scheduler, all drawing helpers
// from the shared worker pool — is bit-identical to serial, and so is
// every such width with plans compiled unfused, and the chunk-recorded
// unfused serial session core.Run profiles with: losses, fetches and
// trained variables.
func TestCrossWorkloadDeterminism(t *testing.T) {
	const trainSteps = 3
	unfused := []runtime.Option{runtime.WithUnfusedPlans()}
	widths := []struct {
		label          string
		intra, interop int
		opts           []runtime.Option
	}{
		{"intraop 4 vs serial", 4, 1, nil},
		{"interop 4 vs serial", 1, 4, nil},
		{"intraop 4 × interop 4 vs serial", 4, 4, nil},
		{"unfused vs fused serial", 1, 1, unfused},
		{"unfused intraop 4 vs fused serial", 4, 1, unfused},
		{"unfused interop 4 vs fused serial", 1, 4, unfused},
		{"unfused intraop 4 × interop 4 vs fused serial", 4, 4, unfused},
		{"chunk-recorded unfused vs fused serial", 1, 1, append(unfused, runtime.WithChunkRecord())},
	}
	for _, name := range allNames {
		name := name
		t.Run(name, func(t *testing.T) {
			base := workloadFingerprint(t, name, 1, 1, trainSteps)
			replay := workloadFingerprint(t, name, 1, 1, trainSteps)
			compareFingerprints(t, "serial replay (WithSeed)", base, replay)
			for _, w := range widths {
				par := workloadFingerprint(t, name, w.intra, w.interop, trainSteps, w.opts...)
				compareFingerprints(t, w.label, base, par)
			}
		})
	}
}

// distFingerprint trains `name` data-parallel for trainSteps global
// steps at the given replica count and intra-op width over a fixed
// chunk grid, on a scoped shared pool, and snapshots the trajectory:
// per-step global losses and the final bits of every replica-0
// variable (every other replica is bitwise identical to it —
// TestReplicasStayInLockstep in internal/dist pins that directly).
func distFingerprint(t *testing.T, name string, replicas, intraop, interop, trainSteps int) fingerprint {
	t.Helper()
	pool := sched.New(8)
	defer pool.Close()
	tr, err := dist.New(name, dist.Options{
		Replicas:       replicas,
		Chunks:         4,
		Preset:         core.PresetTiny,
		Seed:           3,
		IntraOpWorkers: intraop,
		InterOpWorkers: interop,
		Pool:           pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	fp := fingerprint{infer: map[string][]float32{}, vars: map[string][]float32{}}
	losses, err := tr.Train(trainSteps)
	if err != nil {
		t.Fatal(err)
	}
	fp.losses = losses
	for _, v := range tr.Replica(0).Graph().Variables() {
		fp.vars[v.Name()] = append([]float32(nil), v.Value().Data()...)
	}
	return fp
}

// TestDataParallelDeterminism extends the harness to the data-parallel
// training subsystem (internal/dist): for all ten workloads, a fixed
// global batch (the 4-chunk grid), chunk count and seed yield
// bit-identical loss trajectories and final variables across replica
// counts {1, 2, 4} and across replica × intra-op width combinations —
// the replica count changes only the partition of the chunk grid,
// never the math.
func TestDataParallelDeterminism(t *testing.T) {
	const trainSteps = 2
	widths := []struct {
		label                      string
		replicas, intraop, interop int
	}{
		{"replicas 2", 2, 1, 1},
		{"replicas 4", 4, 1, 1},
		{"replicas 1 × intraop 4", 1, 4, 1},
		{"replicas 2 × intraop 4", 2, 4, 1},
		{"replicas 4 × intraop 4", 4, 4, 1},
		{"replicas 2 × interop 4", 2, 1, 4},
	}
	for _, name := range allNames {
		name := name
		t.Run(name, func(t *testing.T) {
			base := distFingerprint(t, name, 1, 1, 1, trainSteps)
			replay := distFingerprint(t, name, 1, 1, 1, trainSteps)
			compareFingerprints(t, "dist serial replay", base, replay)
			for i, w := range widths {
				if testing.Short() && i >= 2 {
					break // -short keeps the replica axis, trims the matrix tail
				}
				par := distFingerprint(t, name, w.replicas, w.intraop, w.interop, trainSteps)
				compareFingerprints(t, w.label+" vs replicas 1", base, par)
			}
		})
	}
}

// standaloneScaled fingerprints one standalone trainee at a
// learning-rate scale: a single-replica dist run over the canonical
// 4-chunk grid — the bit-exact reference a fused trainee at that scale
// must reproduce.
func standaloneScaled(t *testing.T, name string, scale float32, trainSteps int) fingerprint {
	t.Helper()
	pool := sched.New(8)
	defer pool.Close()
	tr, err := dist.New(name, dist.Options{
		Replicas: 1,
		Chunks:   4,
		Preset:   core.PresetTiny,
		Seed:     3,
		LRScale:  scale,
		Pool:     pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	fp := fingerprint{infer: map[string][]float32{}, vars: map[string][]float32{}}
	losses, err := tr.Train(trainSteps)
	if err != nil {
		t.Fatal(err)
	}
	fp.losses = losses
	for _, v := range tr.Replica(0).Graph().Variables() {
		fp.vars[v.Name()] = append([]float32(nil), v.Value().Data()...)
	}
	return fp
}

// TestFusedArrayDeterminism extends the harness to horizontally fused
// training (internal/fuse): for every fuseable workload, each trainee
// of a fused array — K instances stacked into one graph, diverging
// only by learning-rate scale — must reproduce its standalone run bit
// for bit, per-step losses and final parameters, across fusion widths
// K ∈ {1, 2, 4} and fused intra-op widths {1, 4}. deepq is excluded by
// construction: it advances out-of-graph state per step.
func TestFusedArrayDeterminism(t *testing.T) {
	const trainSteps = 2
	scales := []float32{1, 0.5, 2, 0.25}
	widths := []struct {
		label    string
		k, intra int
	}{
		{"fused 1", 1, 1},
		{"fused 2", 2, 1},
		{"fused 4", 4, 1},
		{"fused 4 × intraop 4", 4, 4},
	}
	for _, name := range allNames {
		if name == "deepq" {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			// Standalone references, one per learning-rate scale,
			// built lazily: the widths share them.
			refs := map[float32]fingerprint{}
			ref := func(scale float32) fingerprint {
				fp, ok := refs[scale]
				if !ok {
					fp = standaloneScaled(t, name, scale, trainSteps)
					refs[scale] = fp
				}
				return fp
			}
			for i, w := range widths {
				if testing.Short() && i >= 2 {
					break // -short keeps the width axis, trims the matrix tail
				}
				pool := sched.New(8)
				arr, err := fuse.New(name, fuse.Options{
					Width:          w.k,
					LRScales:       scales[:w.k],
					Chunks:         4,
					Preset:         core.PresetTiny,
					Seed:           3,
					IntraOpWorkers: w.intra,
					Pool:           pool,
				})
				if err != nil {
					pool.Close()
					t.Fatal(err)
				}
				if err := arr.Train(trainSteps); err != nil {
					arr.Close()
					pool.Close()
					t.Fatal(err)
				}
				for k := 0; k < w.k; k++ {
					want := ref(scales[k])
					got := fingerprint{
						losses: arr.Losses(k),
						infer:  map[string][]float32{},
						vars:   map[string][]float32{},
					}
					params := arr.TraineeParams(k)
					for i, pn := range arr.ParamNames() {
						got.vars[pn] = append([]float32(nil), params[i].Data()...)
						// Compare trainable parameters only: the fused
						// graph shares non-trainable state.
						if _, ok := want.vars[pn]; !ok {
							t.Fatalf("%s trainee %d: parameter %q missing from standalone run", w.label, k, pn)
						}
					}
					// Fused runs have no inference leg; compare losses and
					// trainable parameters.
					trimmed := fingerprint{losses: want.losses, infer: map[string][]float32{}, vars: map[string][]float32{}}
					for pn := range got.vars {
						trimmed.vars[pn] = want.vars[pn]
					}
					compareFingerprints(t, w.label+" trainee vs standalone", got, trimmed)
				}
				arr.Close()
				pool.Close()
			}
		})
	}
}

// TestDeterminismHarnessGuardedByArena runs one representative wide
// workload (memnet: parallel hops) under the arena's slab-range
// assertion hook at inter-op width 4.
func TestDeterminismHarnessGuardedByArena(t *testing.T) {
	m, err := core.New("memnet")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Setup(core.Config{Preset: core.PresetTiny, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	s := runtime.NewSession(m.Graph(), runtime.WithSeed(11), runtime.WithInterOpWorkers(4))
	guard := tensor.NewBufferGuard()
	s.Arena().SetGuard(guard)
	tr := m.(core.Trainer)
	for i := 0; i < 3; i++ {
		if _, err := tr.TrainStep(s); err != nil {
			t.Fatal(err)
		}
	}
	if v := guard.Violations(); len(v) != 0 {
		t.Fatalf("arena guard violations during memnet training: %v", v)
	}
}

// rows copies examples [from, from+n) of t's batch axis dim into a
// tensor n wide on that axis.
func rows(t *tensor.Tensor, dim, from, n int) *tensor.Tensor {
	shape := append([]int(nil), t.Shape()...)
	outer, inner := 1, 1
	for _, d := range shape[:dim] {
		outer *= d
	}
	for _, d := range shape[dim+1:] {
		inner *= d
	}
	width := shape[dim]
	shape[dim] = n
	out := tensor.New(shape...)
	td, od := t.Data(), out.Data()
	for o := 0; o < outer; o++ {
		copy(od[o*n*inner:(o+1)*n*inner], td[(o*width+from)*inner:(o*width+from+n)*inner])
	}
	return out
}

// TestRungDeterminism is the serving ladder's contract (internal/serve
// runs each micro-batch on the smallest of the workload's builds at a
// power-of-two batch, core.Rebatch): for every workload that serves
// sampled requests, fused and unfused, every row a build at batch r
// returns equals, bit for bit, the same example's row from the build
// at full capacity — on one session running all the builds, as a
// serving worker does. A stochastic graph (autoenc samples its latent
// code) draws its noise row by row from the session RNG, so with the
// RNG reseeded alike only a rung's leading rows see the capacity run's
// noise, and only those are compared.
func TestRungDeterminism(t *testing.T) {
	const capacity = 8
	for _, name := range allNames {
		for _, unfused := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/unfused=%v", name, unfused), func(t *testing.T) {
				m, err := core.New(name)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Setup(core.Config{Preset: core.PresetTiny, Seed: 3, Batch: capacity}); err != nil {
					t.Fatal(err)
				}
				smp, okS := m.(core.Sampler)
				_, okI := m.(core.Inferencer)
				bc, okB := m.(core.BatchCoupled)
				if !okS || !okI || okB && bc.BatchCoupled() {
					t.Skipf("%s does not serve sampled requests", name)
				}
				var opts []runtime.Option
				if unfused {
					opts = append(opts, runtime.WithUnfusedPlans())
				}
				s := runtime.NewSession(m.Graph(), opts...)
				defer s.Close()
				s.SetTraining(false)
				infer := func(sig core.Signature, seed int64, feeds map[string]*tensor.Tensor) map[string]*tensor.Tensor {
					t.Helper()
					s.Reseed(seed)
					out, err := sig.Run(s, feeds)
					if err != nil {
						t.Fatalf("batch %d: %v", sig.BatchCapacity(), err)
					}
					return out
				}
				sig := m.Signature(core.ModeInference)
				batch := smp.Sample()
				want := infer(sig, 11, batch)
				stochastic := false
				for name, v := range infer(sig, 12, batch) {
					_, same := sameFloat32s(v.Data(), want[name].Data())
					stochastic = stochastic || !same
				}
				for r := 1; r < capacity; r *= 2 {
					rsig, err := core.Rebatch(m, r)
					if err != nil {
						t.Fatal(err)
					}
					for from := 0; from+r <= capacity && (from == 0 || !stochastic); from += r {
						feeds := map[string]*tensor.Tensor{}
						for _, in := range sig.Inputs {
							feeds[in.Name] = rows(batch[in.Name], in.BatchDim, from, r)
						}
						got := infer(rsig, 11, feeds)
						for _, out := range sig.Outputs {
							if out.BatchDim == core.BatchNone {
								continue
							}
							w := rows(want[out.Name], out.BatchDim, from, r)
							if i, ok := sameFloat32s(w.Data(), got[out.Name].Data()); !ok {
								t.Fatalf("rung %d rows [%d,%d) output %q differ from capacity %d at element %d",
									r, from, from+r, out.Name, capacity, i)
							}
						}
					}
				}
			})
		}
	}
}
