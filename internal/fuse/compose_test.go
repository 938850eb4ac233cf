package fuse

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sched"

	_ "repro/internal/models/all"
)

// TestReplicasComposeWithFusion is the proof that the engine's step
// loop special-cases neither axis: 2 data-parallel replicas of a
// width-2 fused program (learning-rate scales {1, 0.5}) train each
// trainee bit-identically — per-step losses and final parameters — to
// a standalone single-replica dist run at that scale, the same
// reference the suite harness holds plain fused arrays to. autoenc
// covers stochastic forward ops under Adam, attention Momentum.
func TestReplicasComposeWithFusion(t *testing.T) {
	const steps = 3
	scales := []float32{1, 0.5}
	pool := sched.New(8)
	defer pool.Close()
	for _, name := range []string{"autoenc", "attention"} {
		t.Run(name, func(t *testing.T) {
			arr, err := newArray(name, Options{
				Width: 2, LRScales: scales, Chunks: 4, Preset: core.PresetTiny, Seed: 3, Pool: pool,
			}, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer arr.Close()
			if err := arr.Train(steps); err != nil {
				t.Fatal(err)
			}
			for k, scale := range scales {
				ref, err := dist.New(name, dist.Options{
					Replicas: 1, Chunks: 4, Preset: core.PresetTiny, Seed: 3, LRScale: scale, Pool: pool,
				})
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Train(steps)
				if err != nil {
					t.Fatal(err)
				}
				got := arr.Losses(k)
				if len(got) != steps {
					t.Fatalf("trainee %d: %d losses, want %d", k, len(got), steps)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("trainee %d step %d: loss %v != standalone %v", k, i, got[i], want[i])
					}
				}
				vars := map[string][]float32{}
				for _, v := range ref.Replica(0).Graph().Variables() {
					vars[v.Name()] = v.Value().Data()
				}
				params := arr.TraineeParams(k)
				for i, pn := range arr.ParamNames() {
					w, ok := vars[pn]
					if !ok {
						t.Fatalf("trainee %d: parameter %q missing from the standalone run", k, pn)
					}
					g := params[i].Data()
					if len(g) != len(w) {
						t.Fatalf("trainee %d parameter %q: %d elements, standalone %d", k, pn, len(g), len(w))
					}
					for j := range w {
						if g[j] != w[j] {
							t.Fatalf("trainee %d parameter %q differs from standalone at element %d", k, pn, j)
						}
					}
				}
				ref.Close()
			}
		})
	}
}
