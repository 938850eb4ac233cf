// Package graph implements the coarse-grained dataflow graph at the
// heart of the Fathom reproduction: nodes are primitive operations (the
// smallest schedulable units, mirroring TensorFlow), edges carry
// tensors, and gradients are built symbolically as additional graph
// nodes so that backward-pass operations (Conv2DBackFilter, MatMul with
// transposes, ApplyRMSProp, ...) show up in performance profiles as
// first-class operation types — exactly the property the paper's
// characterization methodology relies on.
package graph

import (
	"math/rand"

	"repro/internal/tensor"
)

// OpClass is the coarse taxonomy of operation types used by the
// paper's Figure 3 (groups A through G).
type OpClass int

const (
	// ClassMatrix is group A: dense matrix operations (MatMul).
	ClassMatrix OpClass = iota
	// ClassConv is group B: convolutions and their gradients.
	ClassConv
	// ClassElementwise is group C: elementwise arithmetic.
	ClassElementwise
	// ClassReduction is group D: reductions and expansions
	// (Sum, Mean, Max, Softmax, Tile, losses with reduced outputs).
	ClassReduction
	// ClassRandom is group E: random sampling.
	ClassRandom
	// ClassOptimization is group F: optimizer update rules.
	ClassOptimization
	// ClassDataMovement is group G: reshapes, transposes, gathers,
	// concatenation, slicing and other layout changes.
	ClassDataMovement

	// NumClasses is the number of operation classes.
	NumClasses = int(ClassDataMovement) + 1
)

var classNames = [...]string{
	"Matrix Operations",
	"Convolution",
	"Elementwise Arithmetic",
	"Reduction and Expansion",
	"Random Sampling",
	"Optimization",
	"Data Movement",
}

var classLetters = [...]string{"A", "B", "C", "D", "E", "F", "G"}

// String returns the descriptive name of the class.
func (c OpClass) String() string {
	if int(c) < 0 || int(c) >= NumClasses {
		return "Unknown"
	}
	return classNames[c]
}

// Letter returns the paper's single-letter group label (A–G).
func (c OpClass) Letter() string {
	if int(c) < 0 || int(c) >= NumClasses {
		return "?"
	}
	return classLetters[c]
}

// ExecContext carries per-execution state into operation kernels.
type ExecContext struct {
	// Pool provides intra-operation parallelism (and its simulated
	// timing; see tensor.Pool).
	Pool *tensor.Pool
	// RNG drives every stochastic operation, seeded per session for
	// reproducibility.
	RNG *rand.Rand
	// Training selects training behaviour in mode-dependent ops
	// (Dropout, BatchNorm).
	Training bool
	// Step is the session's run counter, available to ops that decay
	// schedules.
	Step int
}

// Op is a primitive operation: the smallest schedulable unit of the
// runtime, and the unit at which all profiling in this repository is
// performed. Beyond the three methods here an op is exactly one of two
// kinds, and says which by the one method it adds:
//
//   - a kernel has
//     ForwardInto(ctx *ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error
//     and computes its result into a destination the caller owns. out
//     has the statically inferred output shape, holds arbitrary stale
//     data, and never aliases an input: a kernel writes out before it
//     is done reading its inputs, and a compiled plan hands it slab
//     floats another step used before (see the runtime package). ForwardInto must fully
//     overwrite out — zeroing it first if it accumulates — and must
//     never read it.
//   - a view implements ViewOp and computes nothing.
//
// Graph.Apply rejects an op that is neither, or both.
type Op interface {
	// Name returns the operation type name as it appears in profiles
	// (e.g. "MatMul", "Conv2DBackFilter").
	Name() string
	// Class returns the Figure-3 operation class.
	Class() OpClass
	// InferShape computes the static output shape from input shapes.
	InferShape(in [][]int) ([]int, error)
}

// kernel is the method a kernel op adds to Op. The packages that run
// kernels (runtime's execStep, the ops that wrap another op) declare
// the same one-method interface where they call it.
type kernel interface {
	ForwardInto(ctx *ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error
}

// ViewOp is the method the other kind of op adds: its result is its
// first input's storage under the inferred shape (Reshape, Identity).
// View allocates no data, so whatever the input references, the result
// references too — the one fact the plan compiler's root rule needs
// from an op.
type ViewOp interface {
	View(in []*tensor.Tensor) (*tensor.Tensor, error)
}

// Pointwise is what an index-pure element-wise kernel may add: its
// result at every index is its scalar function — an opcode and a
// constant, tensor.ScalarFn — of its inputs at that index, after
// broadcasting, and its kernel is that function's program
// (tensor.PointwiseInto). A binary opcode over n ≥ 2 inputs is their
// left fold, ((in0 ∘ in1) ∘ in2) ∘ …, each step rounded to float32, as
// AddN sums. The runtime's fuse pass may then run the op inside one step
// with the element-wise ops around it, as one more instruction (or fold
// step) of the same block evaluator (tensor.Program), with the same bits.
type Pointwise interface {
	Pointwise() tensor.ScalarFn
}

// Window is what a Slice adds instead: when it keeps every leading
// index of an input of shape in, its result reads one run of columns
// of each of the input's rows — from column col, rows rowStride long —
// and a fused step reads its input that way rather than copying it.
type Window interface {
	Window(in []int) (col, rowStride int, ok bool)
}

// Forward runs op on in and returns the result in a tensor of its own
// (a view's result shares its input's storage). It is a convenience for
// constant folding and tests, not a method of any op and not on a
// step's path: compiled plans call ForwardInto on slab memory.
func Forward(ctx *ExecContext, op Op, in []*tensor.Tensor) (*tensor.Tensor, error) {
	if v, ok := op.(ViewOp); ok {
		return v.View(in)
	}
	shapes := make([][]int, len(in))
	for i, t := range in {
		shapes[i] = t.Shape()
	}
	shape, err := op.InferShape(shapes)
	if err != nil {
		return nil, err
	}
	out := tensor.New(shape...)
	return out, op.(kernel).ForwardInto(ctx, in, out)
}

// GradOp is implemented by differentiable operations. Grad emits new
// graph nodes computing the gradient with respect to each input given
// the upstream gradient node; a nil entry means "no gradient flows to
// this input" (e.g. the label input of a loss).
type GradOp interface {
	Op
	Grad(g *Graph, n *Node, grad *Node) ([]*Node, error)
}

// Mutator is the statefulness flag for operations that write state
// outside their own output tensor — optimizer apply-ops updating their
// target Variable in place. Mutates reports the nodes whose storage the
// operation rewrites. The runtime's inter-op scheduler serializes a
// mutator against every other access (read or write) to the same node
// in schedule order, so parallel execution preserves the sequential
// read-then-update semantics bit-exactly.
//
// Operations whose only hidden state is op-internal (dropout's saved
// mask, optimizer slot accumulators, RNG draws) do not need Mutator;
// marking them Impure is sufficient, because the scheduler already
// pins all Impure operations to a serial lane in schedule order.
type Mutator interface {
	Op
	Mutates() []*Node
}

// Coster is implemented by operations that can estimate their
// computational cost; the modeled GPU device uses it for roofline
// timing. Operations without a Coster get a bytes-dominated default.
type Coster interface {
	Cost(in [][]int, out []int) (flops, bytes int64)
}
