// Package core defines the Fathom suite itself: the standard model
// interface every workload implements (the paper's answer to the
// "model zoos have no standard interface" problem), the registry of
// the ten workloads (the paper's eight plus the neuraltalk and
// attention extensions), and the instrumented runner that produces
// operation-level profiles.
package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/profiling"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// Mode selects the phase a step executes.
type Mode int

const (
	// ModeInference runs only the forward phase.
	ModeInference Mode = iota
	// ModeTraining runs forward, backward and parameter updates.
	ModeTraining
)

func (m Mode) String() string {
	if m == ModeTraining {
		return "training"
	}
	return "inference"
}

// Preset selects a configuration scale.
type Preset int

const (
	// PresetRef is the reference configuration: structurally faithful
	// to the original paper with dimensions scaled for a pure-Go,
	// single-core substrate (see DESIGN.md §4.4).
	PresetRef Preset = iota
	// PresetSmall further shrinks dimensions for benchmarks.
	PresetSmall
	// PresetTiny is minimal, for unit tests.
	PresetTiny
)

func (p Preset) String() string {
	switch p {
	case PresetSmall:
		return "small"
	case PresetTiny:
		return "tiny"
	default:
		return "ref"
	}
}

// ParseMode converts a mode name.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "training", "train", "":
		return ModeTraining, nil
	case "inference", "infer":
		return ModeInference, nil
	}
	return ModeTraining, fmt.Errorf("core: unknown mode %q", s)
}

// ParsePreset converts a preset name.
func ParsePreset(s string) (Preset, error) {
	switch s {
	case "ref", "":
		return PresetRef, nil
	case "small":
		return PresetSmall, nil
	case "tiny":
		return PresetTiny, nil
	}
	return PresetRef, fmt.Errorf("core: unknown preset %q", s)
}

// Config configures a workload build.
type Config struct {
	Preset Preset
	Seed   int64
	// Batch, when positive, overrides the preset's batch (minibatch)
	// size. Serving engines use it to build a graph whose batch axis
	// matches their micro-batching window (see internal/serve).
	Batch int
	// Heads, when positive, overrides the preset's attention head
	// count for workloads with multi-head attention. The workload's
	// Setup validates divisibility (embed % heads == 0) and rejects
	// impossible configurations.
	Heads int
}

// BatchOr resolves the batch override: the configured Batch if
// positive, else the preset default def.
func (c Config) BatchOr(def int) int {
	if c.Batch > 0 {
		return c.Batch
	}
	return def
}

// HeadsOr resolves the head-count override: the configured Heads if
// positive, else the preset default def.
func (c Config) HeadsOr(def int) int {
	if c.Heads > 0 {
		return c.Heads
	}
	return def
}

// Meta is a workload's Table-II row.
type Meta struct {
	Name    string
	Year    int
	Ref     string // original publication
	Style   string // neuronal style
	Layers  int    // layer depth as reported by the paper
	Task    string // Supervised / Unsupervised / Reinforcement
	Dataset string // original dataset (we substitute synthetically)
	Purpose string // purpose and legacy
}

// Model is the standard interface every Fathom workload implements.
// It is deliberately request-driven: a workload describes its named
// inputs and outputs through Signature, and the capability interfaces
// (Inferencer, Trainer) execute against those. Self-feeding
// profile-style stepping — the original Step behavior — lives in the
// package-level Step adapter, which drives the same methods from the
// workload's synthetic dataset.
type Model interface {
	// Name returns the canonical workload name (e.g. "seq2seq").
	Name() string
	// Meta returns the workload's Table-II metadata.
	Meta() Meta
	// Setup builds the dataflow graph and data pipeline.
	Setup(cfg Config) error
	// Config returns the configuration of the last Setup.
	Config() Config
	// Graph returns the built graph (after Setup).
	Graph() *graph.Graph
	// Signature returns the workload's explicit I/O contract for the
	// mode (after Setup): the placeholders a request must feed and
	// the nodes an execution returns, in fetch order.
	Signature(mode Mode) Signature
}

// Inferencer is the serving capability: execute one forward pass over
// the inference signature, feeding the named inputs and returning the
// named outputs. Implementations must be stateless with respect to the
// model value (all per-run state lives in the session), so one model
// may be shared by many sessions on concurrent goroutines — the
// property serve.Engine's session pool relies on.
type Inferencer interface {
	Infer(s *runtime.Session, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error)
}

// Trainer is the training capability: execute one optimizer update,
// drawing a minibatch from the workload's synthetic dataset, and
// report the step's loss.
type Trainer interface {
	TrainStep(s *runtime.Session) (float64, error)
}

// Sampler provides one synthetic batch of the workload's inference
// inputs, keyed by signature input name. The Step adapter uses it to
// preserve the original self-feeding inference behavior on top of
// Inferencer.
type Sampler interface {
	Sample() map[string]*tensor.Tensor
}

// TrainSampler is the data surface of data-parallel training
// (internal/dist): one training minibatch — feeds for the training
// signature, keyed by input name — drawn from a generator derived
// entirely from seed. The same seed must yield the same batch
// regardless of model history or which replica asks, so any partition
// of a chunk grid over replicas sees identical data (the dist driver
// derives one seed per (step, chunk) via dataset.ChunkSeed). The
// session is provided for workloads whose batch assembly needs a
// forward pass — deepq bootstraps its Q-targets through its frozen
// target network — and implementations may only read variables
// through it, never mutate them.
type TrainSampler interface {
	TrainSample(s *runtime.Session, seed int64) (map[string]*tensor.Tensor, error)
}

// InferenceStepper is implemented by workloads whose self-driven
// inference step is more than Infer on a sampled batch — deepq's
// greedy policy evaluation acts in its emulator. Step prefers it over
// the Sampler+Inferencer path.
type InferenceStepper interface {
	InferStep(s *runtime.Session) error
}

// BatchCoupled is implemented by workloads whose graphs couple
// examples across the batch axis even at inference — residual's
// primitive-op batch normalization computes statistics over the whole
// batch — so per-example outputs depend on what shares the batch.
// Serving engines must not coalesce requests from different callers
// into one execution for such workloads.
type BatchCoupled interface {
	BatchCoupled() bool
}

// LossReporter is implemented by workloads that can report the loss
// of their most recent training step (used by convergence tests).
type LossReporter interface {
	LastLoss() float64
}

// Rebatch builds the Setup workload m again at batch size batch — m's
// own Config with Batch overridden — and returns that build's
// inference signature over a graph holding only what its outputs read
// (graph.Optimize, whose rewrites keep every value's bits). The
// build's variables are m's storage (graph.Node.ShareValue): an update
// to m's variables, a checkpoint load included, is the rebuild's
// update too, and no variable memory is duplicated. Both builds must
// declare the same variables in the same order with the same shapes;
// Rebatch reports any mismatch rather than compute with other weights.
// m's type must be registered (Register) under m.Name().
func Rebatch(m Model, batch int) (Signature, error) {
	fail := func(format string, args ...any) (Signature, error) {
		return Signature{}, fmt.Errorf("core: rebatch %s at batch %d: "+format, append([]any{m.Name(), batch}, args...)...)
	}
	if m.Graph() == nil {
		return fail("model has no graph (call Setup first)")
	}
	r, err := New(m.Name())
	if err != nil {
		return Signature{}, err
	}
	cfg := m.Config()
	cfg.Batch = batch
	if err := r.Setup(cfg); err != nil {
		return fail("%w", err)
	}
	src, dst := m.Graph().Variables(), r.Graph().Variables()
	if len(src) != len(dst) {
		return fail("%d variables, want %d", len(dst), len(src))
	}
	for i, v := range dst {
		if v.Name() != src[i].Name() || !tensor.SameShape(v.Shape(), src[i].Shape()) {
			return fail("variable %d is %q%v, want %q%v", i, v.Name(), v.Shape(), src[i].Name(), src[i].Shape())
		}
	}
	for i, v := range dst {
		v.ShareValue(src[i])
	}
	sig := r.Signature(ModeInference)
	fetches := make([]*graph.Node, len(sig.Outputs))
	for i, out := range sig.Outputs {
		fetches[i] = out.Node
	}
	opt, err := graph.Optimize(&graph.ExecContext{Pool: tensor.NewPool(1)}, fetches)
	if err != nil {
		return fail("%w", err)
	}
	// The optimized graph shares the variables; an input its outputs
	// never read keeps its old placeholder, which no plan will ask for.
	pruned := Signature{
		Inputs:  append([]IOSpec(nil), sig.Inputs...),
		Outputs: append([]IOSpec(nil), sig.Outputs...),
	}
	for _, specs := range [][]IOSpec{pruned.Inputs, pruned.Outputs} {
		for i := range specs {
			if n := opt.Fetch(specs[i].Node); n != nil {
				specs[i].Node = n
			}
		}
	}
	return pruned, nil
}

// Step executes one self-feeding step — one optimizer update
// (training) or one batched inference (inference) drawn from the
// workload's synthetic dataset — by driving the model's Trainer /
// Inferencer capabilities. It is the adapter that preserves the
// original monolithic Step contract for the profiling tooling
// (experiments, fathom run) on top of the request-driven interface.
func Step(m Model, s *runtime.Session, mode Mode) error {
	if mode == ModeTraining {
		tr, ok := m.(Trainer)
		if !ok {
			return fmt.Errorf("core: workload %s does not support training", m.Name())
		}
		_, err := tr.TrainStep(s)
		return err
	}
	if st, ok := m.(InferenceStepper); ok {
		s.SetTraining(false)
		return st.InferStep(s)
	}
	smp, okS := m.(Sampler)
	inf, okI := m.(Inferencer)
	if !okS || !okI {
		return fmt.Errorf("core: workload %s does not support self-feeding inference", m.Name())
	}
	_, err := inf.Infer(s, smp.Sample())
	return err
}

// registry of workload factories.
var registry = map[string]func() Model{}

// Register installs a workload factory; it panics on duplicates
// (registration happens in package init functions).
func Register(name string, factory func() Model) {
	if _, dup := registry[name]; dup {
		panic("core: duplicate workload " + name)
	}
	registry[name] = factory
}

// Names returns the registered workload names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New instantiates a registered workload.
func New(name string) (Model, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown workload %q (have %v)", name, Names())
	}
	return f(), nil
}

// RunOptions configures an instrumented run.
type RunOptions struct {
	Mode    Mode
	Steps   int // measured steps
	Warmup  int // untraced warmup steps
	IntraOp int // real intra-op workers on the shared pool (default 1)
	InterOp int // inter-op scheduler width (default 1 = serial)
	Device  string
	Seed    int64
}

// RunResult is the outcome of an instrumented run.
type RunResult struct {
	Model   string
	Mode    Mode
	Profile *profiling.Profile
	Events  []runtime.Event
	// SimTime is the simulated op time of the measured steps.
	SimTime time.Duration
	// WallTime is the host wall time of the measured steps.
	WallTime time.Duration
}

// NewDevice builds a device by name ("cpu" or "gpu").
func NewDevice(name string) (runtime.Device, error) {
	switch name {
	case "cpu", "":
		return runtime.CPUDevice{}, nil
	case "gpu":
		return runtime.NewGTX960(), nil
	}
	return nil, fmt.Errorf("core: unknown device %q", name)
}

// Run executes warmup + measured self-feeding steps under tracing and
// returns the profile. Run never calls Setup: the model must already
// have been Setup by the caller (SetupAndRun is the convenience path
// that does both). Each run drives the model through the Step adapter
// on a fresh traced session.
func Run(m Model, opt RunOptions) (*RunResult, error) {
	if opt.Steps <= 0 {
		opt.Steps = 1
	}
	dev, err := NewDevice(opt.Device)
	if err != nil {
		return nil, err
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	if opt.InterOp <= 0 {
		opt.InterOp = 1
	}
	sessOpts := []runtime.Option{
		runtime.WithDevice(dev),
		runtime.WithInterOpWorkers(opt.InterOp),
		runtime.WithSeed(seed),
		runtime.WithTrace(),
		// The profiles characterise the workload as the paper's
		// TensorFlow 0.8 ran it, one op per step.
		runtime.WithUnfusedPlans(),
	}
	if opt.IntraOp > 1 {
		sessOpts = append(sessOpts, runtime.WithIntraOpWorkers(opt.IntraOp))
	}
	if _, cpu := dev.(runtime.CPUDevice); cpu {
		// Serial kernel chunks are recorded so profiling.AtWidth can
		// price any intra-op width; the GPU roofline prices whole ops.
		sessOpts = append(sessOpts, runtime.WithChunkRecord())
	}
	sess := runtime.NewSession(m.Graph(), sessOpts...)
	defer sess.Close()
	for i := 0; i < opt.Warmup; i++ {
		if err := Step(m, sess, opt.Mode); err != nil {
			return nil, fmt.Errorf("core: %s warmup step: %w", m.Name(), err)
		}
	}
	sess.ResetTrace()
	t0 := time.Now()
	for i := 0; i < opt.Steps; i++ {
		if err := Step(m, sess, opt.Mode); err != nil {
			return nil, fmt.Errorf("core: %s step %d: %w", m.Name(), i, err)
		}
	}
	wall := time.Since(t0)
	events := sess.Trace()
	prof := profiling.Collect(m.Name(), opt.Mode.String(), opt.Steps, events)
	return &RunResult{
		Model:    m.Name(),
		Mode:     opt.Mode,
		Profile:  prof,
		Events:   events,
		SimTime:  sess.SimTime(),
		WallTime: wall,
	}, nil
}

// SetupAndRun is the convenience path: instantiate, set up, run.
func SetupAndRun(name string, cfg Config, opt RunOptions) (*RunResult, error) {
	m, err := New(name)
	if err != nil {
		return nil, err
	}
	if err := m.Setup(cfg); err != nil {
		return nil, fmt.Errorf("core: setup %s: %w", name, err)
	}
	return Run(m, opt)
}
