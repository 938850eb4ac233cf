package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Horizontally fused array operations (see internal/fuse). A fused
// graph trains K instances of one workload at once by stacking their
// tensors along a new leading fusion axis of size K. Most fused nodes
// are the ordinary kernel lifted across that axis (a view stays a view,
// StackedView): ArrayWrap runs the wrapped kernel once per trainee on
// contiguous slice views, so every trainee's arithmetic — operation
// order, chunk grid, float32 rounding — is exactly what its standalone
// run performs. That per-slice execution is the determinism contract's
// foundation; the batched-GEMM fast path (BatchMatMul) keeps it because
// its kernel is itself a per-slice MatMul loop.
//
// What lifting alone cannot cover: broadcasting a shared (unstacked)
// tensor across trainees (ArrayBroadcast, below), and the two stateful
// kinds of op, which are not lifted but are their own stacked case —
// dropout samples one mask of the per-trainee shape, so the RNG stream
// stays in draw-count lockstep with a standalone run (random.go), and
// an optimizer update of a stack is the rule's K-lane call, one
// learning rate per trainee, so hyperparameter variants diverge only
// through their scalar step sizes (optimizer.go).

// MatMulKind reports whether op is the dense 2-D MatMul primitive,
// and its transpose flags. The fusion transform uses it to route
// no-transpose products of two stacked operands onto BatchMatMul.
func MatMulKind(op graph.Op) (transA, transB, ok bool) {
	m, isMM := op.(matMulOp)
	if !isMM {
		return false, false, false
	}
	return m.transA, m.transB, true
}

// DropoutInfo reports whether op is the stateful Dropout primitive and
// its drop rate.
func DropoutInfo(op graph.Op) (rate float32, ok bool) {
	d, isDrop := op.(*dropoutOp)
	if !isDrop {
		return 0, false
	}
	return d.rate, true
}

// DropoutGradSrc reports whether op is a DropoutGrad and returns the
// forward Dropout op whose mask it replays, so the fusion transform
// can pair the fused gradient with the fused forward instance.
func DropoutGradSrc(op graph.Op) (graph.Op, bool) {
	dg, isGrad := op.(*dropoutGradOp)
	if !isGrad {
		return nil, false
	}
	return dg.src, true
}

// ---- generic lifted primitive ----

// arrayOp lifts a pure kernel across the fusion axis: input i is
// either stacked (leading axis k, sliced per trainee) or shared
// (passed whole to every trainee's invocation). It runs the inner
// kernel k times on contiguous views, so each slice's result is
// bit-identical to the standalone op on the same operands.
type arrayOp struct {
	k       int
	inner   kernelOp
	stacked []bool
}

func (o *arrayOp) Name() string         { return "Array" + o.inner.Name() }
func (o *arrayOp) Class() graph.OpClass { return o.inner.Class() }

// stripShapes removes the fusion axis from stacked input shapes,
// validating it, and returns the per-trainee shapes the inner op sees.
func (o *arrayOp) stripShapes(in [][]int) ([][]int, error) {
	if len(in) != len(o.stacked) {
		return nil, fmt.Errorf("%s wants %d inputs, got %d", o.Name(), len(o.stacked), len(in))
	}
	inner := make([][]int, len(in))
	for i, s := range in {
		if !o.stacked[i] {
			inner[i] = s
			continue
		}
		if len(s) == 0 || s[0] != o.k {
			return nil, fmt.Errorf("%s stacked input %d has shape %v, want leading axis %d", o.Name(), i, s, o.k)
		}
		inner[i] = s[1:]
	}
	return inner, nil
}

func (o *arrayOp) InferShape(in [][]int) ([]int, error) {
	inner, err := o.stripShapes(in)
	if err != nil {
		return nil, err
	}
	out, err := o.inner.InferShape(inner)
	if err != nil {
		return nil, err
	}
	return append([]int{o.k}, out...), nil
}

// sliceViews returns trainee kk's view of each input: a contiguous
// slice of the stacked tensors, the whole tensor for shared ones.
func (o *arrayOp) sliceViews(in []*tensor.Tensor, kk int, views []*tensor.Tensor) []*tensor.Tensor {
	for i, t := range in {
		if !o.stacked[i] {
			views[i] = t
			continue
		}
		shape := t.Shape()[1:]
		s := tensor.SizeOf(shape)
		views[i] = tensor.FromSlice(t.Data()[kk*s:(kk+1)*s], shape...)
	}
	return views
}

// ForwardInto overwrites every trainee slice of out, and out never
// aliases an input (the wrapped kernel receives fresh slice views of
// distinct tensors).
func (o *arrayOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	innerOut := out.Shape()[1:]
	s := tensor.SizeOf(innerOut)
	views := make([]*tensor.Tensor, len(in))
	for kk := 0; kk < o.k; kk++ {
		dst := tensor.FromSlice(out.Data()[kk*s:(kk+1)*s], innerOut...)
		if err := o.inner.ForwardInto(ctx, o.sliceViews(in, kk, views), dst); err != nil {
			return err
		}
	}
	return nil
}

func (o *arrayOp) Cost(in [][]int, out []int) (int64, int64) {
	inner, err := o.stripShapes(in)
	if err != nil {
		return 0, defaultBytes(in, out)
	}
	if c, ok := o.inner.(graph.Coster); ok {
		flops, bytes := c.Cost(inner, out[1:])
		return flops * int64(o.k), bytes * int64(o.k)
	}
	return 0, defaultBytes(in, out)
}

// ArrayWrap lifts a pure kernel op across a fusion axis of size k.
// stacked[i] marks inputs carrying the leading axis; the rest are
// shared across trainees. Impure or state-mutating ops are rejected —
// dropout and the optimizer updates take a stack directly
// (StackedDropout, ApplyUpdate) — and so is a view, which stays a view
// of the stack (StackedView).
func ArrayWrap(k int, op graph.Op, stacked []bool, inputs ...*graph.Node) (*graph.Node, error) {
	if k < 1 {
		return nil, fmt.Errorf("ops: ArrayWrap fusion width %d", k)
	}
	if len(stacked) != len(inputs) {
		return nil, fmt.Errorf("ops: ArrayWrap %d stacked flags for %d inputs", len(stacked), len(inputs))
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("ops: ArrayWrap needs at least one input")
	}
	inner, ok := op.(kernelOp)
	if !ok {
		return nil, fmt.Errorf("ops: ArrayWrap cannot lift %s, which is not a kernel", op.Name())
	}
	if _, impure := inner.(graph.Impure); impure {
		return nil, fmt.Errorf("ops: ArrayWrap cannot lift impure op %s", inner.Name())
	}
	if _, mutates := inner.(graph.Mutator); mutates {
		return nil, fmt.Errorf("ops: ArrayWrap cannot lift mutating op %s", inner.Name())
	}
	any := false
	for _, s := range stacked {
		any = any || s
	}
	if !any {
		return nil, fmt.Errorf("ops: ArrayWrap of %s with no stacked input — keep it shared instead", inner.Name())
	}
	return inputs[0].Graph().Apply(&arrayOp{
		k:       k,
		inner:   inner,
		stacked: append([]bool(nil), stacked...),
	}, inputs...)
}

// StackedView applies a view op to a (K,…) stack: the same view with
// the fusion axis carried through. A stacked Reshape is a Reshape — the
// lanes are contiguous, so lane kk of the result is the standalone view
// of lane kk — and nothing is lifted or copied.
func StackedView(k int, op graph.Op, inputs ...*graph.Node) (*graph.Node, error) {
	switch v := op.(type) {
	case reshapeOp:
		op = reshapeOp{target: append([]int{k}, v.target...)}
	case identityOp:
	default:
		return nil, fmt.Errorf("ops: StackedView of %s, which is not a view", op.Name())
	}
	return inputs[0].Graph().Apply(op, inputs...)
}

// ---- broadcast: shared tensor → stacked ----

// arrayBroadcastOp tiles a shared tensor K times along a new leading
// fusion axis, for the few sites where a fused op needs every operand
// stacked (BatchMatMul).
type arrayBroadcastOp struct{ k int }

func (o *arrayBroadcastOp) Name() string         { return "ArrayBroadcast" }
func (o *arrayBroadcastOp) Class() graph.OpClass { return graph.ClassDataMovement }
func (o *arrayBroadcastOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("ArrayBroadcast", in, 1); err != nil {
		return nil, err
	}
	return append([]int{o.k}, copyShape(in[0])...), nil
}
func (o *arrayBroadcastOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	src := in[0].Data()
	s := len(src)
	od := out.Data()
	for kk := 0; kk < o.k; kk++ {
		copy(od[kk*s:(kk+1)*s], src)
	}
	return nil
}
func (o *arrayBroadcastOp) Cost(in [][]int, out []int) (int64, int64) {
	return 0, defaultBytes(in, out)
}

// ArrayBroadcast stacks a shared tensor K times along a new leading
// fusion axis.
func ArrayBroadcast(k int, x *graph.Node) *graph.Node {
	return x.Graph().MustApply(&arrayBroadcastOp{k: k}, x)
}
