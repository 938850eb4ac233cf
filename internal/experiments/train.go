package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fuse"
	"repro/internal/profiling"
	"repro/internal/telemetry"
)

// trainRun is one training measurement on the engine.
type trainRun struct {
	losses [][]float64             // [trainee][step], warmup included
	sum    telemetry.PhaseSample   // phase walls summed over the timed steps
	steps  int                     // timed steps behind sum
	log    []telemetry.PhaseSample // per-step phases, warmup included
	batch  int
}

// runTrain trains one workload for o.Warmup untimed plus o.Steps timed
// global steps on the process-wide pool — warmup compiles every
// replica's forward/backward and apply plans, so the reported timings
// are steady-state, as in every other experiment. width 0 trains
// data-parallel at the given replica count; width K > 0 trains a
// horizontally fused array of K trainees (pure replication: every
// trainee at learning-rate scale 1, so each must reproduce the
// 1-replica run bit for bit) over the same chunk grid. Either way it
// is the same engine underneath, so one measurement path serves both.
func runTrain(name string, o Options, replicas, width, chunks, intraop int) (trainRun, error) {
	var tr *dist.Trainer
	if width > 0 {
		arr, err := fuse.New(name, fuse.Options{
			Width: width, Chunks: chunks,
			Preset: o.Preset, Seed: o.Seed, IntraOpWorkers: intraop,
		})
		if err != nil {
			return trainRun{}, err
		}
		tr = arr.Trainer
	} else {
		var err error
		tr, err = dist.New(name, dist.Options{
			Replicas: replicas, Chunks: chunks,
			Preset: o.Preset, Seed: o.Seed, IntraOpWorkers: intraop,
		})
		if err != nil {
			return trainRun{}, err
		}
	}
	defer tr.Close()
	if _, err := tr.Train(o.Warmup); err != nil {
		return trainRun{}, err
	}
	tr.ResetTiming()
	if _, err := tr.Train(o.Steps); err != nil {
		return trainRun{}, err
	}
	run := trainRun{log: tr.PhaseLog(), batch: tr.Partition().GlobalBatch}
	run.sum, run.steps = tr.PhaseSum()
	for k := 0; k < tr.Lanes(); k++ {
		run.losses = append(run.losses, tr.LaneLosses(k))
	}
	return run, nil
}

// stepsPerS is the run's timed trainee-step rate: every step advances
// one trainee per loss lane.
func (r trainRun) stepsPerS() float64 {
	if r.sum.Wall <= 0 {
		return 0
	}
	return float64(r.steps*len(r.losses)) / r.sum.Wall.Seconds()
}

// sameLosses reports whether two loss trajectories are bit-identical.
func sameLosses(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TrainScaling is the training-scaling report (`fathom train`, part of
// `fathom all`): per workload, it trains the same fixed global batch
// at 1 replica and at `replicas` replicas on the shared worker pool
// and puts the achieved wall-clock speedup next to the achievable
// bound the run's own phase structure admits (profiling.TrainScaling).
// With fused > 0 it additionally trains a horizontally fused array of
// that width (internal/fuse) and reports its trainee-step throughput
// against the sequential-standalone baseline. The ident columns
// live-check the two subsystems' headline invariant — replica counts
// only repartition the chunk grid, and fused trainees reproduce
// standalone runs, so every loss trajectory must be bit-identical.
func TrainScaling(o Options, replicas, chunks, intraop, fused int, names []string) (Result, error) {
	scaling, _, err := TrainPhases(o, replicas, chunks, intraop, fused, names)
	return scaling, err
}

// TrainPhases is TrainScaling plus the training-loop phase-telemetry
// report (`fathom train -trace`) of the very runs the scaling table
// measured: per workload, the per-step sample/grad/reduce/apply wall
// times from the N-replica trainer's phase ring — the step-level
// breakdown behind the table's phase sums, which is where stragglers,
// warmup cliffs, and allocator stalls show up. With fused > 0 the fused
// array's phase log follows the data-parallel one, so the two
// execution strategies' step anatomies sit side by side.
func TrainPhases(o Options, replicas, chunks, intraop, fused int, names []string) (scaling, phases Result, err error) {
	o = o.withDefaults()
	if replicas < 1 {
		replicas = 1
	}
	if chunks < 1 {
		chunks = 4
	}
	if intraop < 1 {
		intraop = 1
	}
	if fused < 0 {
		fused = 0
	}
	if len(names) == 0 {
		names = core.Names()
	}
	var text, csv, trace strings.Builder
	fmt.Fprintf(&text, "training scaling: %d steps, %d chunks/step, replicas 1 vs %d, intra-op %d",
		o.Steps, chunks, replicas, intraop)
	if fused > 0 {
		fmt.Fprintf(&text, ", fused width %d", fused)
	}
	text.WriteString("\n\n")
	fmt.Fprintf(&text, "%-10s %6s %10s %11s %11s %9s %10s %11s %8s %6s\n",
		"workload", "batch", "loss", "step/s@1", "step/s@N", "achieved", "achievable", "trainee/s@K", "fused-x", "ident")
	csv.WriteString("workload,replicas,chunks,global_batch,steps,final_loss,serial_steps_per_s,parallel_steps_per_s,achieved,achievable,bit_identical,fused_width,fused_trainee_steps_per_s,fused_speedup,fused_identical\n")
	fmt.Fprintf(&trace, "training phase telemetry: %d warmup + %d timed steps, %d chunks/step, %d replicas, intra-op %d\n",
		o.Warmup, o.Steps, chunks, replicas, intraop)
	trace.WriteString("phases: sample (input synthesis, included in grad), grad (forward+backward run), reduce (gradient averaging), apply (optimizer)\n")
	for _, name := range names {
		name = strings.TrimSpace(name)
		base, err := runTrain(name, o, 1, 0, chunks, intraop)
		if err != nil {
			return Result{}, Result{}, fmt.Errorf("train %s replicas=1: %w", name, err)
		}
		par, err := runTrain(name, o, replicas, 0, chunks, intraop)
		if err != nil {
			return Result{}, Result{}, fmt.Errorf("train %s replicas=%d: %w", name, replicas, err)
		}
		fmt.Fprintf(&trace, "\n%s (dist, %d replicas):\n", name, replicas)
		telemetry.WritePhaseTable(&trace, par.log)
		ident := sameLosses(base.losses[0], par.losses[0])
		ts := profiling.TrainScaling(replicas, base.sum, par.sum)
		serialRate, parRate := base.stepsPerS(), par.stepsPerS()
		final := 0.0
		if l := par.losses[0]; len(l) > 0 {
			final = l[len(l)-1]
		}

		fusedRate, fusedX := 0.0, 0.0
		fusedIdent := true
		if fused > 0 {
			fr, err := runTrain(name, o, 1, fused, chunks, intraop)
			if err != nil {
				return Result{}, Result{}, fmt.Errorf("train %s fused=%d: %w", name, fused, err)
			}
			fmt.Fprintf(&trace, "\n%s (fused, width %d):\n", name, fused)
			telemetry.WritePhaseTable(&trace, fr.log)
			fusedRate = fr.stepsPerS()
			if serialRate > 0 {
				fusedX = fusedRate / serialRate
			}
			// Pure replication: every fused trainee must reproduce the
			// 1-replica trajectory bit for bit.
			for k := 0; fusedIdent && k < len(fr.losses); k++ {
				fusedIdent = sameLosses(base.losses[0], fr.losses[k])
			}
		}

		fmt.Fprintf(&text, "%-10s %6d %10.4f %11.2f %11.2f %8.2fx %9.2fx %11.2f %7.2fx %6v\n",
			name, base.batch, final, serialRate, parRate,
			ts.Achieved, ts.Achievable, fusedRate, fusedX, ident && fusedIdent)
		fmt.Fprintf(&csv, "%s,%d,%d,%d,%d,%.6f,%.4f,%.4f,%.4f,%.4f,%v,%d,%.4f,%.4f,%v\n",
			name, replicas, chunks, base.batch, o.Steps, final,
			serialRate, parRate, ts.Achieved, ts.Achievable, ident,
			fused, fusedRate, fusedX, fusedIdent)
		if !ident {
			// The determinism harness enforces this in CI; the report
			// surfaces it rather than silently printing a broken run.
			fmt.Fprintf(&text, "  WARNING: %s loss trajectory differs across replica counts\n", name)
		}
		if !fusedIdent {
			fmt.Fprintf(&text, "  WARNING: %s fused trainee trajectory differs from the standalone run\n", name)
		}
	}
	text.WriteString("\nachieved: wall speedup over the 1-replica run of the same global batch\n")
	text.WriteString("achievable: Amdahl bound from the run's phase walls (parallel gradients, serial reduce+apply)\n")
	if fused > 0 {
		text.WriteString("trainee/s@K: fused array trainee-step throughput (K instances in one graph)\n")
		text.WriteString("fused-x: that throughput over step/s@1 — speedup vs training the K instances sequentially\n")
	}
	text.WriteString("ident: loss trajectories bit-identical across replica counts and fused trainees (the determinism contract)\n")
	title := fmt.Sprintf("Data-parallel training scaling at %d replicas", replicas)
	if fused > 0 {
		title = fmt.Sprintf("Training scaling: %d replicas data-parallel, width-%d fused", replicas, fused)
	}
	scaling = Result{ID: "train", Title: title, Text: text.String(), CSV: csv.String()}
	phases = Result{
		ID:    "train-phases",
		Title: fmt.Sprintf("Training-loop phase telemetry at %d replicas", replicas),
		Text:  trace.String(),
	}
	return scaling, phases, nil
}
