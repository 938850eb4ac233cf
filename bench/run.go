package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/models/nn"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// runLoop is the two run workloads: back-to-back steps of one model on
// one runtime.Session. An operation is one step — draw the step's
// batch, then one Session.Run of the mode's fetch set — so the models
// layer (batch synthesis) and the runtime layer (plan execution) are
// separate calls the traced run can time apart.
type runLoop struct {
	model            string
	training         bool
	intraOp, interOp int

	*loop
	steps    int                // executed so far, warm-up included
	first    [checkSteps]uint64 // output hashes of the first steps
	firstRun time.Duration      // wall of the first Session.Run, which compiles the plan
	agg      runAgg             // traced runs only
}

// runAgg folds every traced step's events into the totals the runtime
// and tensor metrics derive from, so the per-op event slices never
// outlive their step.
type runAgg struct {
	runs, ops        int
	runWall, runSelf time.Duration // Σ Session.Run wall, and the part of it no op covers
	opWall           time.Duration // Σ Event.Wall
	simSerial, simCP time.Duration // Σ Event.Dur, Σ per-run max Event.CP
	runMS            []float64
	byClass          [graph.NumClasses]time.Duration
	byType           map[string]time.Duration
}

// loop is a model with the session, fetch set and input bindings one
// run workload steps; the reference uses the same constructor at
// width 1.
type loop struct {
	m          core.Model
	sess       *runtime.Session
	fetches    []*graph.Node
	inputs     []core.IOSpec
	training   bool
	seed       int64
	modelSetup time.Duration // Model.Setup wall
	sessionNew time.Duration // NewSession wall
}

func newLoop(model string, training bool, seed int64, intraOp, interOp int, traced bool) (*loop, error) {
	t0 := time.Now()
	m, err := newModel(model, seed, 0)
	if err != nil {
		return nil, err
	}
	l := &loop{m: m, training: training, seed: seed, modelSetup: time.Since(t0)}
	mode := core.ModeInference
	if training {
		mode = core.ModeTraining
	}
	l.inputs = m.Signature(mode).Inputs
	if l.fetches, err = fetchSet(m, training); err != nil {
		return nil, err
	}
	opts := []runtime.Option{
		runtime.WithSeed(seed),
		runtime.WithIntraOpWorkers(intraOp),
		runtime.WithInterOpWorkers(interOp),
		runtime.WithLeaseName("bench/" + model),
	}
	if traced {
		opts = append(opts, runtime.WithTrace())
	}
	t0 = time.Now()
	l.sess = runtime.NewSession(m.Graph(), opts...)
	l.sessionNew = time.Since(t0)
	l.sess.SetTraining(training)
	return l, nil
}

func (w *runLoop) setup(c *config, rec *recorder) error {
	l, err := newLoop(w.model, w.training, c.seed, w.intraOp, w.interOp, c.traced)
	if err != nil {
		return err
	}
	w.loop = l
	for i := 0; i < warmSteps; i++ {
		if _, o := w.step(nil); o != opOK {
			return fmt.Errorf("%s warm-up step %d failed its check", w.model, i)
		}
	}
	if c.traced {
		w.sess.ResetTrace() // drop the warm-up steps' events
	}
	w.agg = runAgg{byType: map[string]time.Duration{}}
	return nil
}

// sample draws step i's batch. Training batches are a pure function
// of (seed, step) through the workload's TrainSampler, exactly as
// dist draws chunk data; inference batches come from the model's own
// seeded Sampler stream, which a reference model built from the same
// seed replays.
func (l *loop) sample(step int) (map[string]*tensor.Tensor, error) {
	if l.training {
		ts, ok := l.m.(core.TrainSampler)
		if !ok {
			return nil, fmt.Errorf("%s has no TrainSampler", l.m.Name())
		}
		return ts.TrainSample(l.sess, dataset.ChunkSeed(l.seed, step, 0))
	}
	smp, ok := l.m.(core.Sampler)
	if !ok {
		return nil, fmt.Errorf("%s has no Sampler", l.m.Name())
	}
	return smp.Sample(), nil
}

// stepTimes is when one step's Session.Run started and how long it
// took, for the traced run.
type stepTimes struct {
	run      time.Duration
	runStart time.Time
}

// run executes step i: sample, then Session.Run of the fetch set.
func (l *loop) run(step int, rec *recorder, op int64, root int32) ([]*tensor.Tensor, stepTimes, error) {
	var st stepTimes
	sp := rec.begin("models.sample", root, op)
	batch, err := l.sample(step)
	rec.end(sp)
	if err != nil {
		return nil, st, err
	}
	feeds := make(runtime.Feeds, len(l.inputs))
	for _, in := range l.inputs {
		t, ok := batch[in.Name]
		if !ok {
			return nil, st, fmt.Errorf("%s sample misses input %q", l.m.Name(), in.Name)
		}
		feeds[in.Node] = t
	}
	st.runStart = time.Now()
	out, err := l.sess.Run(l.fetches, feeds)
	st.run = time.Since(st.runStart)
	return out, st, err
}

// step runs the next step of the measured session, checks it, and in
// traced runs folds its events into the aggregates.
func (w *runLoop) step(rec *recorder) (time.Duration, outcome) {
	i := w.steps
	w.steps++
	op := int64(i + 1)
	root := rec.begin("bench.step", 0, op)
	t0 := time.Now()
	out, st, err := w.run(i, rec, op, root)
	lat := time.Since(t0)
	rec.end(root)
	if i == 0 {
		w.firstRun = st.run
	}
	if rec != nil {
		w.fold(rec, root, op, st)
	}
	switch {
	case err != nil:
		return lat, opErrored
	case !allFinite(out...):
		return lat, opWrong
	}
	if i < checkSteps {
		w.first[i] = bitsHash(out...)
	}
	return lat, opOK
}

// fold turns one traced step's runtime.Events into spans under a
// runtime.run span and adds them to the aggregates.
func (w *runLoop) fold(rec *recorder, root int32, op int64, st stepTimes) {
	events := w.sess.Trace()
	w.sess.ResetTrace()
	runDur := st.run
	local := make([]span, 0, len(events)+1)
	local = append(local, span{Name: "runtime.run", Start: st.runStart.Sub(rec.epoch), End: st.runStart.Sub(rec.epoch) + runDur})
	run := rec.add("runtime.run", root, op, 0, st.runStart, runDur)
	a := &w.agg
	var maxCP time.Duration
	for i := range events {
		ev := &events[i]
		start := ev.WallStart.Sub(rec.epoch)
		local = append(local, span{Name: ev.Op, Start: start, End: start + ev.Wall, Parent: 1})
		rec.add("tensor."+ev.Op, run, op, 1+ev.Worker, ev.WallStart, ev.Wall)
		a.opWall += ev.Wall
		a.byClass[ev.Class] += ev.Wall
		a.byType[ev.Op] += ev.Wall
		a.simSerial += ev.Dur
		if ev.CP > maxCP {
			maxCP = ev.CP
		}
	}
	a.runs++
	a.ops += len(events)
	a.runWall += runDur
	a.runSelf += selfTimes(local)[0]
	a.simCP += maxCP
	a.runMS = append(a.runMS, ms(runDur))
}

func (w *runLoop) measure(c *config, rec *recorder) (*tally, error) {
	t := &tally{}
	for start := time.Now(); windowOpen(c, start, t.n[opOK]); {
		lat, o := w.step(rec)
		t.add(o, lat)
	}
	return t, nil
}

// verify replays the first steps on a second model and a serial
// session built from the same seed and demotes every step whose
// outputs differ by a bit: widths must never change results.
func (w *runLoop) verify(c *config, t *tally) error {
	ref, err := newLoop(w.model, w.training, c.seed, 1, 1, false)
	if err != nil {
		return err
	}
	defer ref.sess.Close()
	n := min(w.steps, checkSteps)
	var wrong int
	for i := 0; i < n; i++ {
		out, _, err := ref.run(i, nil, 0, 0)
		if err != nil {
			return fmt.Errorf("reference step %d: %w", i, err)
		}
		if bitsHash(out...) != w.first[i] {
			wrong++
		}
	}
	t.demote(wrong)
	return nil
}

func (w *runLoop) close() {
	if w.loop != nil {
		w.sess.Close()
	}
}

// fetchSet is the mode's fetch set: loss plus the optimizer step for
// training (what the workload's own TrainStep fetches), the inference
// signature's outputs otherwise.
func fetchSet(m core.Model, training bool) ([]*graph.Node, error) {
	if !training {
		var out []*graph.Node
		for _, o := range m.Signature(core.ModeInference).Outputs {
			out = append(out, o.Node)
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("%s has no inference outputs", m.Name())
		}
		return out, nil
	}
	tr, ok := m.(interface{ TrainPlan() *nn.TrainPlan })
	if !ok {
		return nil, fmt.Errorf("%s exposes no TrainPlan", m.Name())
	}
	tp := tr.TrainPlan()
	return []*graph.Node{tp.Loss(), tp.TrainOp()}, nil
}
