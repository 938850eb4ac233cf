// Package dist is the suite's training engine: N replicas of one
// training program, each with its own graph and session, stepped in
// lockstep over shards of a synthetic dataset with a deterministic
// gradient all-reduce. It holds the suite's one training step loop:
// data-parallel training (New) drives replicas of a registry workload,
// and horizontally fused training (internal/fuse) drives the same loop
// over replicas whose graph is the K-stacked transform of one.
//
// # Architecture
//
// A replica executes a Program: a graph plus the fetch/feed surface of
// one training step — a loss node of K ≥ 1 elements (K "lanes": one
// for a plain workload, one per trainee for a fused graph), raw
// gradient nodes, named input placeholders, a fed-gradient apply node,
// and a seed-keyed batch sampler. A global training step consumes a
// fixed global batch, decomposed into a canonical grid of micro-batches
// ("chunks", see dataset.Partition). Each replica owns a contiguous
// ascending range of the chunk grid. A step has three phases:
//
//  1. Gradients: every replica runs, for each owned chunk, one
//     forward+backward of its program — fetching the loss vector and
//     the raw parameter gradients, without touching any variable. The
//     chunk's data comes from the program's sampler keyed by
//     dataset.ChunkSeed over (seed, step, chunk), and the session RNG
//     is reseeded with the same chunk seed, so a chunk's batch AND its
//     stochastic ops (dropout masks, VAE sampling) are pure functions
//     of the chunk coordinates.
//  2. All-reduce: for every parameter, the per-chunk gradients combine
//     in fixed ascending-replica, ascending-chunk float32 order —
//     replica ranges are contiguous and ascending, so this is exactly
//     ascending order over the global chunk grid — then scale by
//     1/chunks (the gradient of the global-batch mean loss). It is one
//     element-wise program (tensor.Program) run per parameter: the left
//     fold of Add over the chunk gradients, then Mul by 1/chunks. The
//     evaluator's chunk rule splits a large parameter into element
//     ranges that may run on different workers; every element's combine
//     order is fixed regardless of the split or placement.
//  3. Apply: every replica feeds the same combined tensors into its
//     program's fed-gradient placeholders and fetches the same apply
//     node, taking one identical optimizer step. Replica variable
//     state therefore stays bitwise identical forever.
//
// # Determinism contract
//
// For a fixed global batch, chunk count and seed, the training
// trajectory — per-step losses and every variable's final bits — is
// identical for ANY replica count dividing the chunk count, and for
// any intra-op/inter-op session widths: the replica count changes only
// which session executes a chunk, never the chunk's math, data, RNG
// stream, or the combine order. The cross-workload harness
// (internal/models/determinism_test.go) pins this for all ten
// workloads across replicas {1,2,4} × intra-op {1,4}. The loop
// special-cases neither the replica count nor the lane count, so the
// contract composes: N replicas of a K-lane fused program train each
// lane bit-identically to its standalone run.
//
// # Scheduling
//
// A trainer's parallel work runs on one tensor.Pool as wide as its
// replica count, drawing helpers from a lease on the shared worker pool
// (internal/sched): the grad and apply phases are one pool region with
// a replica per chunk, and the all-reduce is the evaluator's own
// regions. The caller always takes part and helpers are asked for
// without blocking, so pool exhaustion degrades to serial execution,
// never deadlock, and total execution goroutines stay bounded by the
// pool size (replica sessions lease their own intra-op/inter-op helpers
// under the same rules).
package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/models/nn"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// phaseRingSize bounds the per-step phase telemetry ring: enough for a
// bench run's whole trajectory, constant memory forever after.
const phaseRingSize = 256

// ErrClosed is returned by Step after Close.
var ErrClosed = errors.New("dist: trainer closed")

// Trainable is what a workload must implement to train on the engine:
// the standard model interface, a seed-keyed batch sampler, and the
// gradient/update fetch surface nn.BuildTraining records. All ten
// suite workloads qualify.
type Trainable interface {
	core.Model
	core.TrainSampler
	TrainPlan() *nn.TrainPlan
}

// StepListener is an optional workload hook: OnTrainStep(step) runs on
// every replica after global step `step`'s combined update has been
// applied, for state that must advance in lockstep outside the graph —
// deepq syncs its target network here. Implementations may only
// depend on replica-local state that is itself in lockstep.
type StepListener interface {
	OnTrainStep(step int)
}

// Options configures a Trainer.
type Options struct {
	// Replicas is the number of model replicas (default 1). It must
	// divide Chunks.
	Replicas int
	// Chunks is the canonical micro-batch grid per global step
	// (default 4). It — not Replicas — fixes the gradient combine
	// order, so runs with equal Chunks are bit-identical at every
	// replica count dividing it.
	Chunks int
	// GlobalBatch is the examples per global step; Chunks must divide
	// it. 0 derives it as Chunks × the workload's preset batch (each
	// chunk is one preset minibatch).
	GlobalBatch int
	// Preset selects the workload scale (default ref).
	Preset core.Preset
	// Seed keys model initialization and the per-(step, chunk) data
	// and RNG streams (default 1).
	Seed int64
	// LRScale scales the workload recipe's base learning rate (0 means
	// 1): the update path applies base × LRScale as a single float32
	// product — the same arithmetic a fused training array
	// (internal/fuse) applies per trainee, so a standalone dist run at
	// a given scale is the bit-exact reference for that fused trainee.
	LRScale float32
	// IntraOpWorkers is each replica session's real intra-op width
	// (default 1); InterOpWorkers its inter-op scheduler width.
	// Neither affects result bits.
	IntraOpWorkers int
	InterOpWorkers int
	// Pool is the shared worker pool replicas (and their sessions)
	// draw helpers from (default sched.Default()); tests use scoped
	// pools.
	Pool *sched.Pool
}

// Program is what one replica executes: a training graph and the
// fetch/feed surface of one step on it. New builds one per replica
// from a registry workload's TrainPlan; internal/fuse builds them from
// the K-stacked transform of one. The step loop reads nothing else, so
// it cannot tell the two apart.
type Program struct {
	// Model is the workload instance behind Graph (what Replica
	// returns); nil when Graph is a transform no workload instance owns.
	Model core.Model
	Graph *graph.Graph
	// Batch is the examples per chunk the graph was built for.
	Batch int
	// Loss holds one element per lane. Grads are the raw gradients and
	// GradIn the fed-gradient placeholders Apply reads, index-aligned
	// and shape-equal.
	Loss   *graph.Node
	Grads  []*graph.Node
	Apply  *graph.Node
	GradIn []*graph.Node
	// Inputs maps sampled input names to placeholders. A sampled name
	// absent from it is skipped — a transform may have pruned inputs
	// outside its training closure — and a placeholder the fetches do
	// read but nothing fed still fails the Run.
	Inputs map[string]*graph.Node
	// Sample draws the chunk batch keyed by seed (core.TrainSampler's
	// contract); s is the replica's session over Graph.
	Sample func(s *runtime.Session, seed int64) (map[string]*tensor.Tensor, error)
	// OnStep, when set, runs after each applied step (StepListener).
	OnStep func(step int)
}

// replica is one program copy and its execution state.
type replica struct {
	prog    *Program
	sess    *runtime.Session
	fetches []*graph.Node // loss + raw grads, in program order

	applyFeeds runtime.Feeds

	lo, hi int // owned chunk range [lo, hi)

	feeds      runtime.Feeds      // per-chunk training feeds, reused
	chunkLoss  []float64          // [owned chunk × lane]
	chunkGrads [][]*tensor.Tensor // [owned chunk][param]

	gradWall   time.Duration // grad phase wall of the current step
	sampleWall time.Duration // Sample share of gradWall
	err        error
}

// Trainer drives lockstep training of one program over its replicas.
// It is confined to a single goroutine: Step, checkpointing and Close
// must not be called concurrently (internally Step fans replicas out on
// the shared pool).
type Trainer struct {
	name     string
	label    string // "<kind>/<name>": lease name, metrics label, error prefix
	opts     Options
	part     dataset.Partition
	lease    *sched.Lease
	pool     *tensor.Pool // Replicas wide, helpers from lease
	replicas []*replica
	lanes    int

	comb       []*tensor.Tensor // combined gradients, one per parameter
	reduceProg tensor.Program   // the all-reduce of one parameter
	reduceIn   []*tensor.Tensor // its loads: the chunk gradients, then 1/Chunks
	step       int
	losses     [][]float64 // [lane][step]
	phases     *telemetry.PhaseRing
	closed     bool
}

// Instantiate builds one Setup instance of a registry workload and
// checks it carries the training surface the engine needs.
func Instantiate(name string, cfg core.Config) (Trainable, error) {
	m, err := core.New(name)
	if err != nil {
		return nil, err
	}
	tr, ok := m.(Trainable)
	if !ok {
		return nil, fmt.Errorf("workload %s is not trainable (wants core.TrainSampler + TrainPlan)", name)
	}
	if err := m.Setup(cfg); err != nil {
		return nil, fmt.Errorf("setup %s: %w", name, err)
	}
	if tr.TrainPlan() == nil {
		return nil, fmt.Errorf("workload %s has no TrainPlan after Setup", name)
	}
	return tr, nil
}

// New builds a data-parallel trainer: Replicas instances of the
// workload, each Setup with an identical config (bit-identical initial
// variables) at the chunk micro-batch size, each with its own session
// on the shared pool.
func New(name string, opts Options) (*Trainer, error) {
	scale := opts.LRScale
	if scale == 0 {
		scale = 1
	}
	return NewEngine("dist", name, opts, func(cfg core.Config) (*Program, error) {
		m, err := Instantiate(name, cfg)
		if err != nil {
			return nil, err
		}
		plan := m.TrainPlan()
		// Build the fed-gradient apply path eagerly so every replica
		// graph has it (checkpoints then agree across replica counts).
		apply, gradIn, err := plan.DistApplyScaled(scale)
		if err != nil {
			return nil, fmt.Errorf("apply path: %w", err)
		}
		sig := m.Signature(core.ModeTraining)
		prog := &Program{
			Model: m, Graph: m.Graph(), Batch: sig.BatchCapacity(),
			Loss: plan.Loss(), Grads: plan.Grads(), Apply: apply, GradIn: gradIn,
			Inputs: map[string]*graph.Node{},
			Sample: m.TrainSample,
		}
		for _, in := range sig.Inputs {
			prog.Inputs[in.Name] = in.Node
		}
		if l, ok := m.(StepListener); ok {
			prog.OnStep = l.OnTrainStep
		}
		return prog, nil
	})
}

// NewEngine builds a trainer over opts.Replicas programs from build,
// called once per replica with the chunk-sized workload config; every
// call must return a bit-identical program. kind names the subsystem
// ("dist", "fuse"): the trainer's shared-pool lease, its metrics label
// and its errors all read "<kind>/<name>".
func NewEngine(kind, name string, opts Options, build func(core.Config) (*Program, error)) (*Trainer, error) {
	if opts.Replicas < 1 {
		opts.Replicas = 1
	}
	if opts.Chunks < 1 {
		opts.Chunks = 4
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Pool == nil {
		opts.Pool = sched.Default()
	}
	if opts.Chunks%opts.Replicas != 0 {
		return nil, fmt.Errorf("%s: replicas %d does not divide chunks %d", kind, opts.Replicas, opts.Chunks)
	}
	cfg := core.Config{Preset: opts.Preset, Seed: opts.Seed} // Batch 0 = the workload's preset batch
	if opts.GlobalBatch > 0 {
		if opts.GlobalBatch%opts.Chunks != 0 {
			return nil, fmt.Errorf("%s: chunks %d does not divide global batch %d", kind, opts.Chunks, opts.GlobalBatch)
		}
		cfg.Batch = opts.GlobalBatch / opts.Chunks
	}
	t := &Trainer{
		name: name, label: kind + "/" + name, opts: opts,
		phases: telemetry.NewPhaseRing(phaseRingSize),
	}
	// Until construction succeeds, any error return must release the
	// sessions (and their shared-pool leases) built so far.
	built := false
	defer func() {
		if !built {
			t.Close()
		}
	}()
	sessOpts := []runtime.Option{
		runtime.WithSeed(opts.Seed),
		runtime.WithWorkerPool(opts.Pool),
		runtime.WithLeaseName(t.label),
	}
	if opts.IntraOpWorkers > 1 {
		sessOpts = append(sessOpts, runtime.WithIntraOpWorkers(opts.IntraOpWorkers))
	}
	if opts.InterOpWorkers > 1 {
		sessOpts = append(sessOpts, runtime.WithInterOpWorkers(opts.InterOpWorkers))
	}
	for r := 0; r < opts.Replicas; r++ {
		prog, err := build(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s replica %d: %w", t.label, r, err)
		}
		if r == 0 {
			t.lanes = tensor.SizeOf(prog.Loss.Shape())
			t.losses = make([][]float64, t.lanes)
			for _, in := range prog.GradIn {
				t.comb = append(t.comb, tensor.New(in.Shape()...))
			}
		}
		rep := &replica{
			prog:       prog,
			sess:       runtime.NewSession(prog.Graph, sessOpts...),
			fetches:    append([]*graph.Node{prog.Loss}, prog.Grads...),
			applyFeeds: make(runtime.Feeds, len(prog.GradIn)),
			feeds:      runtime.Feeds{},
		}
		for p, in := range prog.GradIn {
			rep.applyFeeds[in] = t.comb[p]
		}
		t.replicas = append(t.replicas, rep)
	}
	part, err := dataset.NewPartition(t.replicas[0].prog.Batch*opts.Chunks, opts.Chunks, opts.Replicas)
	if err != nil {
		return nil, err
	}
	t.part = part
	per := part.ChunksPerReplica()
	for r, rep := range t.replicas {
		rep.lo, rep.hi = part.Range(r)
		rep.chunkLoss = make([]float64, per*t.lanes)
		rep.chunkGrads = make([][]*tensor.Tensor, per)
	}
	// The all-reduce program: loads 0…C−1 are the chunk gradients in
	// ascending order and load C the scalar 1/C. Their Add fold (none
	// at C = 1, where Emit would add g0 to itself) is scaled by Mul.
	chunks, sum := opts.Chunks, 0
	slots := make([]int, chunks+1)
	for c := range slots {
		slots[c] = c
		t.reduceProg.Loads = append(t.reduceProg.Loads, tensor.Load{In: c})
	}
	if chunks > 1 {
		t.reduceProg, sum = t.reduceProg.Emit(tensor.ScalarFn{Op: tensor.Add}, slots[:chunks]...)
	}
	t.reduceProg, _ = t.reduceProg.Emit(tensor.ScalarFn{Op: tensor.Mul}, sum, chunks)
	t.reduceIn = make([]*tensor.Tensor, chunks+1)
	t.reduceIn[chunks] = tensor.Scalar(1 / float32(chunks))
	t.lease = opts.Pool.LeaseNamed(t.label, opts.Replicas-1)
	t.pool = tensor.NewParallelPool(opts.Replicas, t.lease)
	built = true
	return t, nil
}

// Name returns the trained workload's name.
func (t *Trainer) Name() string { return t.name }

// Partition returns the chunk grid.
func (t *Trainer) Partition() dataset.Partition { return t.part }

// Steps returns the number of applied global steps.
func (t *Trainer) Steps() int { return t.step }

// Lanes returns the loss vector's length K: 1 for a plain workload,
// the fusion width for a fused program.
func (t *Trainer) Lanes() int { return t.lanes }

// Losses returns lane 0's per-step global losses so far — the whole
// trajectory of a plain (one-lane) workload.
func (t *Trainer) Losses() []float64 { return t.losses[0] }

// LaneLosses returns lane k's per-step global losses so far.
func (t *Trainer) LaneLosses(k int) []float64 { return t.losses[k] }

// PhaseSum returns the phase walls summed over every step since the
// last ResetTiming, and the number of steps summed — the raw material
// of the achieved-vs-achievable scaling report (profiling.TrainScaling).
func (t *Trainer) PhaseSum() (telemetry.PhaseSample, int) { return t.phases.Sum() }

// ResetTiming zeroes the phase sum — e.g. after warmup steps, so
// steady-state scaling numbers exclude one-time plan compilation
// (losses, the step counter and the phase log are untouched).
func (t *Trainer) ResetTiming() { t.phases.ResetSum() }

// PhaseLog returns the retained per-step phase breakdowns (sample,
// grad, reduce, apply, wall), oldest first — the raw material of
// `fathom train -trace`. Unlike PhaseSum's totals, each entry is one
// step, so stragglers and warmup spikes are visible individually.
func (t *Trainer) PhaseLog() []telemetry.PhaseSample { return t.phases.Samples() }

// trainSeries is one series a trainer exports: its /metrics name and
// help and the scrape-time read of its value. The trainerSeries table
// is the only place a series is declared — RegisterMetrics and
// UnregisterMetrics walk it — so the two cannot drift. As in serve, a
// _total series is a counter and anything else a gauge.
type trainSeries struct {
	name, help string
	read       func(*Trainer) float64
}

var trainerSeries = []trainSeries{
	{"fathom_train_steps_total", "Global training steps executed.",
		func(t *Trainer) float64 { return float64(t.phases.Total()) }},
	{"fathom_train_step_seconds", "Wall time of the most recent training step.",
		func(t *Trainer) float64 {
			s := t.phases.Samples()
			if len(s) == 0 {
				return 0
			}
			return s[len(s)-1].Wall.Seconds()
		}},
	// One fused step advances each of its K lanes' trainees, so this
	// moves K per step: the HFTA-style throughput next to the per-model
	// step rate.
	{"fathom_trainee_steps_total", "Trainee-steps executed (steps x fusion width; a plain trainer has width 1).",
		func(t *Trainer) float64 { return float64(t.phases.Total() * t.lanes) }},
}

// RegisterMetrics exposes the trainer's trainerSeries on reg, labeled
// trainer="<kind>/<name>". The reads are scrape-time and mutex-cheap
// (once per scrape, not per step). Trainers are ephemeral next to the
// process registry, so callers pair it with UnregisterMetrics.
func (t *Trainer) RegisterMetrics(reg *telemetry.Registry) {
	labels := telemetry.Labels{"trainer": t.label}
	for _, s := range trainerSeries {
		if strings.HasSuffix(s.name, "_total") {
			reg.CounterFunc(s.name, s.help, labels, func() uint64 { return uint64(s.read(t)) })
		} else {
			reg.GaugeFunc(s.name, s.help, labels, func() float64 { return s.read(t) })
		}
	}
}

// UnregisterMetrics removes the series RegisterMetrics added.
func (t *Trainer) UnregisterMetrics(reg *telemetry.Registry) {
	labels := telemetry.Labels{"trainer": t.label}
	for _, s := range trainerSeries {
		reg.Unregister(s.name, labels)
	}
}

// Replica exposes replica r's model (tests compare variable bits
// across trainers; examples inspect the trained graph). Nil for
// programs no workload instance owns.
func (t *Trainer) Replica(r int) core.Model { return t.replicas[r].prog.Model }

// Close closes every replica session and releases the trainer's lease
// on the shared pool. Idempotent; Step afterwards fails with
// ErrClosed.
func (t *Trainer) Close() {
	if t.closed {
		return
	}
	t.closed = true
	for _, r := range t.replicas {
		r.sess.Close()
	}
	if t.lease != nil {
		t.lease.Close()
	}
}

// runReplicas executes fn for every replica as one region of the
// trainer's pool, a replica per chunk. A helper's panic is re-raised on
// the caller after every replica has joined.
func (t *Trainer) runReplicas(fn func(*replica)) {
	t.pool.For(len(t.replicas), 1, func(lo, hi int) {
		for _, r := range t.replicas[lo:hi] {
			fn(r)
		}
	})
}

// gradPhase computes replica r's owned chunks: per chunk, reseed the
// session to the chunk seed, sample the chunk's batch, and fetch the
// loss vector + raw gradients. No variable is touched. The fetched
// gradients are retained until reduce combines them.
func (t *Trainer) gradPhase(r *replica) {
	t0 := time.Now()
	r.err = nil
	r.sampleWall = 0
	r.sess.SetTraining(true)
	for ci, c := 0, r.lo; c < r.hi; ci, c = ci+1, c+1 {
		seed := dataset.ChunkSeed(t.opts.Seed, t.step, c)
		r.sess.Reseed(seed)
		ts := time.Now()
		sample, err := r.prog.Sample(r.sess, seed)
		r.sampleWall += time.Since(ts)
		if err != nil {
			r.err = fmt.Errorf("%s chunk %d sample: %w", t.label, c, err)
			return
		}
		clear(r.feeds)
		for name, v := range sample {
			if node, ok := r.prog.Inputs[name]; ok {
				r.feeds[node] = v
			}
		}
		out, err := r.sess.Run(r.fetches, r.feeds)
		if err != nil {
			r.err = fmt.Errorf("%s chunk %d: %w", t.label, c, err)
			return
		}
		for k, l := range out[0].Data() {
			r.chunkLoss[ci*t.lanes+k] = float64(l)
		}
		r.chunkGrads[ci] = out[1:]
	}
	r.gradWall = time.Since(t0)
}

// chunkGrad returns chunk c's gradient for parameter p.
func (t *Trainer) chunkGrad(c, p int) *tensor.Tensor {
	r := t.replicas[t.part.Owner(c)]
	return r.chunkGrads[c-r.lo][p]
}

// reduce runs the all-reduce: per parameter, the combine program over
// the chunk gradients in ascending chunk order — ascending replica,
// ascending chunk within the replica, which is the same thing — scaled
// by 1/Chunks, yielding the gradient of the global-batch mean loss. The
// order is a constant of the chunk grid and elements are independent,
// so the result bits never depend on the replica count or on how the
// evaluator splits a parameter across workers.
func (t *Trainer) reduce() error {
	for p, out := range t.comb {
		for c := 0; c < t.part.Chunks; c++ {
			t.reduceIn[c] = t.chunkGrad(c, p)
		}
		if err := t.reduceProg.Run(t.pool, out, t.reduceIn); err != nil {
			return fmt.Errorf("%s all-reduce: %w", t.label, err)
		}
	}
	clear(t.reduceIn[:t.part.Chunks]) // hold no chunk gradient past the phase
	return nil
}

// applyPhase applies the combined gradients on replica r: one fetch of
// the fed-gradient apply node, then the program's step hook. Every
// replica executes the identical update, keeping variable state in
// lockstep.
func (t *Trainer) applyPhase(r *replica) {
	r.err = nil
	if _, err := r.sess.Run([]*graph.Node{r.prog.Apply}, r.applyFeeds); err != nil {
		r.err = fmt.Errorf("%s apply: %w", t.label, err)
		return
	}
	if r.prog.OnStep != nil {
		r.prog.OnStep(t.step)
	}
}

// Step executes one global training step and returns lane 0's global
// loss — the loss of a plain workload.
func (t *Trainer) Step() (float64, error) {
	losses, err := t.StepLanes()
	if err != nil {
		return 0, err
	}
	return losses[0], nil
}

// StepLanes executes one global training step — gradients over the
// chunk grid, deterministic all-reduce, one identical update per
// replica — and returns the per-lane global losses: for each lane, the
// mean of its per-chunk losses, combined in ascending chunk order.
func (t *Trainer) StepLanes() ([]float64, error) {
	if t.closed {
		return nil, ErrClosed
	}
	t0 := time.Now()
	t.runReplicas(t.gradPhase)
	// Phase telemetry is keyed by the slowest replica's sample and grad
	// walls (the parallel phases' critical path). Grad includes Sample —
	// the per-chunk loop interleaves them — so Grad−Sample is the
	// graph-execution share. Forward and backward are one fused Run
	// (loss and gradients fetch together), hence one Grad phase.
	ph := telemetry.PhaseSample{Step: t.step}
	for _, r := range t.replicas {
		if r.err != nil {
			return nil, r.err
		}
		ph.GradSum += r.gradWall
		ph.Grad = max(ph.Grad, r.gradWall)
		ph.Sample = max(ph.Sample, r.sampleWall)
	}

	tr := time.Now()
	if err := t.reduce(); err != nil {
		return nil, err
	}
	ph.Reduce = time.Since(tr)
	// The fetched gradients are the step's largest transients. Drop
	// them here rather than when the next step overwrites them: held
	// across the apply phase and the next step's first chunks they
	// survive extra GC cycles and raise the heap peak (train-fuse peak
	// RSS about +15% against +5% on the repo benchmark).
	for _, r := range t.replicas {
		clear(r.chunkGrads)
	}

	ta := time.Now()
	t.runReplicas(t.applyPhase)
	ph.Apply = time.Since(ta)
	for _, r := range t.replicas {
		if r.err != nil {
			return nil, r.err
		}
	}

	// Global loss per lane: ascending-chunk mean — float64 accumulation
	// in a fixed order, so the loss trajectory is replica-count
	// invariant bit for bit.
	means := make([]float64, t.lanes)
	for k := range means {
		var sum float64
		for c := 0; c < t.part.Chunks; c++ {
			r := t.replicas[t.part.Owner(c)]
			sum += r.chunkLoss[(c-r.lo)*t.lanes+k]
		}
		means[k] = sum / float64(t.part.Chunks)
		t.losses[k] = append(t.losses[k], means[k])
	}
	t.step++
	ph.Wall = time.Since(t0)
	t.phases.Record(ph)
	return means, nil
}

// Train runs n global steps, returning lane 0's per-step losses.
func (t *Trainer) Train(n int) ([]float64, error) {
	start := len(t.losses[0])
	for i := 0; i < n; i++ {
		if _, err := t.StepLanes(); err != nil {
			return nil, err
		}
	}
	return t.losses[0][start:], nil
}

// Checkpointing: a checkpoint is a small header — magic, version, the
// global step counter, and the training-stream coordinates (chunk
// count, chunk batch, seed) — followed by a standard runtime checkpoint
// of replica 0's graph (all replicas are bitwise identical, any one
// serves). The step counter makes a resumed run continue the same
// per-(step, chunk) data and RNG streams; the stream coordinates are
// validated on load, because a resumed run under a different chunk
// grid or seed would draw different data and silently diverge from the
// donor — the contract deliberately leaves only the replica count
// free. Loading restores the same bytes into EVERY replica's graph, so
// a resumed trainer is in lockstep immediately — at any replica count
// dividing the chunk grid, which is what makes checkpoints the interop
// point between replica counts: save under 2 replicas, resume under 1
// or 4, and the continuations are bit-identical to each other.
// Optimizer slot state (momentum velocity, RMS statistics, Adam
// moments and step counter) lives in "<var>/slot/<name>" graph
// variables, so the image captures it and a resumed run continues the
// uninterrupted trajectory bit for bit under every optimizer. A fused
// program's graph holds the K-stacked variables, so an image only
// loads into a graph of the same width: the variable shapes differ
// otherwise and the runtime loader refuses them.
type checkpointHeader struct {
	Magic      [4]byte
	Version    uint32
	Step       uint64
	Chunks     uint32
	ChunkBatch uint32
	Seed       int64
}

var checkpointMagic = [4]byte{'F', 'D', 'S', 'T'}

const checkpointVersion = 1

// SaveCheckpoint writes the trainer's state: step header plus replica
// 0's variables.
func (t *Trainer) SaveCheckpoint(w io.Writer) error {
	if t.closed {
		return ErrClosed
	}
	hdr := checkpointHeader{
		Magic: checkpointMagic, Version: checkpointVersion, Step: uint64(t.step),
		Chunks: uint32(t.part.Chunks), ChunkBatch: uint32(t.part.ChunkBatch()), Seed: t.opts.Seed,
	}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	return runtime.SaveCheckpoint(w, t.replicas[0].prog.Graph)
}

// LoadCheckpoint restores every replica's variables and the global
// step counter from a checkpoint SaveCheckpoint wrote.
func (t *Trainer) LoadCheckpoint(r io.Reader) error {
	if t.closed {
		return ErrClosed
	}
	var hdr checkpointHeader
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return fmt.Errorf("%s: reading checkpoint header: %w", t.label, err)
	}
	if hdr.Magic != checkpointMagic {
		return fmt.Errorf("%s: not a trainer checkpoint (magic %q)", t.label, hdr.Magic[:])
	}
	if hdr.Version != checkpointVersion {
		return fmt.Errorf("%s: unsupported checkpoint version %d", t.label, hdr.Version)
	}
	if int(hdr.Chunks) != t.part.Chunks || int(hdr.ChunkBatch) != t.part.ChunkBatch() || hdr.Seed != t.opts.Seed {
		return fmt.Errorf(
			"%s: checkpoint trained with chunks %d × batch %d, seed %d; this trainer uses chunks %d × batch %d, seed %d — only the replica count may change across a resume",
			t.label, hdr.Chunks, hdr.ChunkBatch, hdr.Seed, t.part.Chunks, t.part.ChunkBatch(), t.opts.Seed)
	}
	// The runtime checkpoint is consumed once; replay the bytes into
	// every replica graph.
	body, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	for i, rep := range t.replicas {
		if err := runtime.LoadCheckpoint(bytes.NewReader(body), rep.prog.Graph, false); err != nil {
			return fmt.Errorf("%s: restoring replica %d: %w", t.label, i, err)
		}
	}
	t.step = int(hdr.Step)
	return nil
}
