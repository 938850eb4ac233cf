// Package fuse is the suite's horizontally fused training subsystem:
// K training instances of one workload — hyperparameter variants
// differing only in learning rate, or plain replicas — fused into a
// single array-batched graph, after HFTA (Wang et al., MLSys 2021).
//
// # Architecture
//
// Where data-parallel training (internal/dist) runs K separate graphs
// that time-slice the shared worker pool, fusion stacks the K
// instances' variables, activations and gradients along a new leading
// fusion axis and runs ONE graph: shared inputs and everything
// computed purely from them execute once for all trainees, stacked
// untransposed matrix products collapse into single BatchMatMul nodes,
// and each optimizer apply-op steps K lanes, one learning rate each.
// One session, one scheduler pass, one impure lane — the fused step
// does strictly less work than K standalone steps and feeds the pool
// larger kernels.
//
// # Determinism contract
//
// Fusion admits K instances with the same workload, seed and chunk
// grid, diverging only through per-trainee learning-rate scales. Under
// that admission rule, trainee kk's per-step losses and final variable
// bits are identical to a standalone run of that instance (a
// single-replica dist trainer at learning-rate scale kk) — not merely
// close: every fused node either executes the standalone kernel
// per-trainee on contiguous slices (ops.ArrayWrap, ops.BatchMatMul's
// per-slice loop, the optimizer update — the standalone rule called
// over K lanes, one learning rate each) or is genuinely shared
// (one dropout mask, one RNG draw — exactly what K seed-identical
// standalone runs each compute). The step itself is not reimplemented
// here: an Array is internal/dist's engine driving a replica whose
// program is the fused graph, so the chunk protocol — per-chunk reseed
// and sample, ascending-chunk combine × 1/Chunks, fed-gradient apply —
// is literally the one a standalone run executes. The determinism
// harness (internal/models/determinism_test.go) pins trainee-vs-
// standalone bit-identity across K ∈ {1,2,4} × intra-op {1,4}.
//
// # Scheduling
//
// The fused session is one tenant of the shared worker pool, leased as
// "fuse/<workload>" under the pool's adaptive occupancy-driven grants
// (internal/sched), so a fused array co-resident with a serve engine
// or a dist trainer converges to a share proportional to its demand —
// and degrades to serial execution, never blocking, when the pool is
// saturated.
package fuse

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// ErrClosed is returned by Step after Close.
var ErrClosed = dist.ErrClosed

// Options configures an Array.
type Options struct {
	// Width is the fusion width K: the number of trainees stacked into
	// the fused graph (default 1).
	Width int
	// LRScales are the per-trainee learning-rate scale factors, length
	// Width; trainee kk trains at scale LRScales[kk] × the workload's
	// base rate. Nil means every trainee at scale 1 (pure replication).
	LRScales []float32
	// Chunks is the canonical micro-batch grid per global step
	// (default 4) — the same grid a standalone dist run uses, so the
	// gradient combine order matches bit for bit.
	Chunks int
	// GlobalBatch is the examples per global step per trainee; Chunks
	// must divide it. 0 derives it as Chunks × the workload's preset
	// batch.
	GlobalBatch int
	// Preset selects the workload scale (default ref).
	Preset core.Preset
	// Seed keys model initialization and the per-(step, chunk) data
	// and RNG streams, shared by every trainee (default 1).
	Seed int64
	// IntraOpWorkers is the fused session's real intra-op width
	// (default 1); InterOpWorkers its inter-op scheduler width.
	// Neither affects result bits.
	IntraOpWorkers int
	InterOpWorkers int
	// Pool is the shared worker pool (default sched.Default()).
	Pool *sched.Pool
}

// Array drives fused training of K instances of one workload: the dist
// engine over the fused program, plus the per-trainee views of it.
// Everything not redeclared here — Steps, Partition, PhaseLog,
// PhaseSum, ResetTiming, SaveCheckpoint, LoadCheckpoint,
// RegisterMetrics, UnregisterMetrics, Close — is the engine's own;
// Step, Train and Losses are redeclared in their per-trainee shapes.
// Like the engine it is confined to a single goroutine.
type Array struct {
	*dist.Trainer

	params     []*graph.Node // stacked trainable variables, template order
	paramShape [][]int       // per-trainee parameter shapes
	paramNames []string
}

// New builds a fused array: one instance of the workload, Setup at the
// chunk micro-batch size, horizontally fused Width times.
func New(name string, opts Options) (*Array, error) { return newArray(name, opts, 1) }

// newArray is New over `replicas` data-parallel copies of the fused
// program. The engine composes the two axes for free, but only the
// single-replica form is public until a caller needs the other.
func newArray(name string, opts Options, replicas int) (*Array, error) {
	if opts.Width < 1 {
		opts.Width = 1
	}
	scales := opts.LRScales
	if scales == nil {
		scales = make([]float32, opts.Width)
		for i := range scales {
			scales[i] = 1
		}
	}
	if len(scales) != opts.Width {
		return nil, fmt.Errorf("fuse: %d learning-rate scales for width %d", len(scales), opts.Width)
	}
	a := &Array{}
	var err error
	a.Trainer, err = dist.NewEngine("fuse", name, dist.Options{
		Replicas:       replicas,
		Chunks:         opts.Chunks,
		GlobalBatch:    opts.GlobalBatch,
		Preset:         opts.Preset,
		Seed:           opts.Seed,
		IntraOpWorkers: opts.IntraOpWorkers,
		InterOpWorkers: opts.InterOpWorkers,
		Pool:           opts.Pool,
	}, func(cfg core.Config) (*dist.Program, error) {
		m, err := dist.Instantiate(name, cfg)
		if err != nil {
			return nil, err
		}
		// Workloads that advance out-of-graph state per step (deepq's
		// target-network sync) cannot fuse: their per-instance state
		// has no slice in the fused graph.
		if _, perStep := m.(dist.StepListener); perStep {
			return nil, fmt.Errorf("workload %s advances out-of-graph state per step and cannot fuse", name)
		}
		fp, err := transform(m, opts.Width, scales)
		if err != nil {
			return nil, err
		}
		if a.params == nil {
			// Replicas stay bitwise identical, so the first one's stacks
			// serve the per-trainee views.
			a.params = fp.params
			for _, p := range m.TrainPlan().Params() {
				a.paramShape = append(a.paramShape, p.Shape())
				a.paramNames = append(a.paramNames, p.Name())
			}
		}
		return &dist.Program{
			Graph: fp.g, Batch: m.Signature(core.ModeTraining).BatchCapacity(),
			Loss: fp.loss, Grads: fp.grads, Apply: fp.apply, GradIn: fp.gradIn,
			Inputs: fp.inputs,
			// The template samples from the seed alone. It gets no
			// session: a sampler that needed a forward pass would read
			// the template's variables, which fused training never
			// updates, so it must fail loudly rather than sample stale
			// state.
			Sample: func(_ *runtime.Session, seed int64) (map[string]*tensor.Tensor, error) {
				return m.TrainSample(nil, seed)
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// Width returns the fusion width K.
func (a *Array) Width() int { return a.Lanes() }

// Step executes one fused global step — the engine's chunk protocol on
// the fused graph — and returns the per-trainee global losses. Chunk
// c's fetch computes every trainee's loss and raw gradients in one
// run; one fetch of the fused apply path then steps every trainee at
// its own learning rate.
func (a *Array) Step() ([]float64, error) { return a.StepLanes() }

// Train runs n fused global steps.
func (a *Array) Train(n int) error {
	_, err := a.Trainer.Train(n)
	return err
}

// Losses returns trainee k's per-step loss trajectory.
func (a *Array) Losses(k int) []float64 { return a.LaneLosses(k) }

// ParamNames returns the trainable parameter names, template order.
func (a *Array) ParamNames() []string { return a.paramNames }

// TraineeParams returns trainee k's parameter tensors as views into
// the fused stacks, template order.
func (a *Array) TraineeParams(k int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(a.params))
	for i, p := range a.params {
		s := tensor.SizeOf(a.paramShape[i])
		out[i] = tensor.FromSlice(p.Value().Data()[k*s:(k+1)*s], a.paramShape[i]...)
	}
	return out
}
