package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dist"
	"repro/internal/fuse"
	"repro/internal/telemetry"
)

const trainModel = "attention"

// referenceLosses is the determinism contract's reference for both
// train workloads: the loss sequence of a 1-replica dist.Trainer with
// the same seed and chunk grid.
func referenceLosses(seed int64, n int) ([]float64, error) {
	ref, err := dist.New(trainModel, dist.Options{Replicas: 1, Chunks: trainChunks, Preset: preset, Seed: seed})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	return ref.Train(n)
}

func sameLoss(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func finiteLoss(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// phaseSpans lays a step's PhaseLog entry out as child spans of the
// step span, back to back from the step's start. The trainers record
// phase durations, not start times, so the layout is schematic; what
// is exact is each phase's duration and the remainder — the step
// span's self time — which is the coordination cost no phase claims.
func phaseSpans(rec *recorder, layer string, root int32, op int64, start time.Time, p telemetry.PhaseSample) {
	at := start
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"sample", p.Sample}, {"grad", p.Grad}, {"reduce", p.Reduce}, {"apply", p.Apply}} {
		rec.add(layer+"."+ph.name, root, op, 0, at, ph.d)
		at = at.Add(ph.d)
	}
}

// ---- train-dist ----

// trainDist steps attention on a dist.Trainer with two replicas over a
// four-chunk grid; an operation is one global step.
type trainDist struct {
	t *dist.Trainer
}

func (w *trainDist) setup(c *config, rec *recorder) error {
	t, err := dist.New(trainModel, dist.Options{
		Replicas: width, Chunks: trainChunks, Preset: preset, Seed: c.seed, IntraOpWorkers: 1,
	})
	if err != nil {
		return err
	}
	w.t = t
	for i := 0; i < warmSteps; i++ {
		if _, err := t.Step(); err != nil {
			return fmt.Errorf("warm-up step %d: %w", i, err)
		}
	}
	t.ResetTiming()
	return nil
}

func (w *trainDist) measure(c *config, rec *recorder) (*tally, error) {
	t := &tally{}
	for start := time.Now(); windowOpen(c, start, t.n[opOK]); {
		op := int64(w.t.Steps() + 1)
		root := rec.begin("dist.step", 0, op)
		t0 := time.Now()
		loss, err := w.t.Step()
		lat := time.Since(t0)
		rec.end(root)
		if rec != nil {
			if log := w.t.PhaseLog(); len(log) > 0 {
				phaseSpans(rec, "dist", root, op, t0, log[len(log)-1])
			}
		}
		o := opOK
		switch {
		case err != nil:
			o = opErrored
		case !finiteLoss(loss):
			o = opWrong
		}
		t.add(o, lat)
	}
	return t, nil
}

func (w *trainDist) verify(c *config, t *tally) error {
	got := w.t.Losses()
	n := min(len(got), checkSteps)
	want, err := referenceLosses(c.seed, n)
	if err != nil {
		return err
	}
	var wrong int
	for i := 0; i < n; i++ {
		if !sameLoss(got[i], want[i]) {
			wrong++
		}
	}
	t.demote(wrong)
	return nil
}

func (w *trainDist) close() {
	if w.t != nil {
		w.t.Close()
	}
}

// ---- train-fuse ----

// trainFuse steps the same model, seed and chunk grid through a
// fuse.Array of four trainees; an operation is one array step, i.e.
// four trainee-steps.
type trainFuse struct {
	a       *fuse.Array
	build   time.Duration // fuse.New through the end of the first step
	stepsMS []float64     // traced: step wall per measured step
}

func (w *trainFuse) setup(c *config, rec *recorder) error {
	t0 := time.Now()
	a, err := fuse.New(trainModel, fuse.Options{
		Width: fuseWidth, Chunks: trainChunks, Preset: preset, Seed: c.seed, IntraOpWorkers: width,
	})
	if err != nil {
		return err
	}
	w.a = a
	for i := 0; i < warmSteps; i++ {
		if _, err := a.Step(); err != nil {
			return fmt.Errorf("warm-up step %d: %w", i, err)
		}
		if i == 0 {
			// fuse.New defers the graph transform and the K-stacked plan
			// compile to the first step, so the build ends there.
			w.build = time.Since(t0)
		}
	}
	a.ResetTiming()
	return nil
}

func (w *trainFuse) measure(c *config, rec *recorder) (*tally, error) {
	t := &tally{}
	for start := time.Now(); windowOpen(c, start, t.n[opOK]); {
		op := int64(w.a.Steps() + 1)
		root := rec.begin("fuse.step", 0, op)
		t0 := time.Now()
		losses, err := w.a.Step()
		lat := time.Since(t0)
		rec.end(root)
		if rec != nil {
			if log := w.a.PhaseLog(); len(log) > 0 {
				phaseSpans(rec, "fuse", root, op, t0, log[len(log)-1])
			}
			w.stepsMS = append(w.stepsMS, ms(lat))
		}
		o := opOK
		if err != nil {
			o = opErrored
		} else {
			for _, l := range losses {
				if !finiteLoss(l) {
					o = opWrong
				}
			}
		}
		t.add(o, lat)
	}
	return t, nil
}

// verify holds every trainee to the 1-replica reference: a step is
// wrong if any of its four trainees' losses differs by a bit.
func (w *trainFuse) verify(c *config, t *tally) error {
	n := min(w.a.Steps(), checkSteps)
	want, err := referenceLosses(c.seed, n)
	if err != nil {
		return err
	}
	var wrong int
	for i := 0; i < n; i++ {
		for k := 0; k < w.a.Width(); k++ {
			if !sameLoss(w.a.Losses(k)[i], want[i]) {
				wrong++
				break
			}
		}
	}
	t.demote(wrong)
	return nil
}

func (w *trainFuse) close() {
	if w.a != nil {
		w.a.Close()
	}
}
