package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// ---- reductions (class D) ----

type reduceOp struct {
	kind     string // "sum", "mean", "max"
	axes     []int
	keepDims bool
}

func (o reduceOp) Name() string {
	switch o.kind {
	case "sum":
		return "Sum"
	case "mean":
		return "Mean"
	default:
		return "Max"
	}
}
func (o reduceOp) Class() graph.OpClass { return graph.ClassReduction }

func (o reduceOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs(o.Name(), in, 1); err != nil {
		return nil, err
	}
	return tensor.ReducedShape(in[0], o.axes, o.keepDims)
}

func (o reduceOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.ReduceInto(ctx.Pool, out, in[0], o.axes, o.keepDims, o.kind)
}

func (o reduceOp) Cost(in [][]int, out []int) (int64, int64) {
	return int64(tensor.SizeOf(in[0])), defaultBytes(in, out)
}

// expandGradToInput reshapes a reduction gradient to the keep-dims
// shape and tiles it back to the input shape: the same Reshape+Tile
// pair TensorFlow emits, which is why Tile features in the paper's
// seq2seq and memnet profiles.
func expandGradToInput(g *graph.Graph, grad *graph.Node, inShape, axes []int) (*graph.Node, error) {
	keep, err := tensor.ReducedShape(inShape, axes, true)
	if err != nil {
		return nil, err
	}
	r := Reshape(grad, keep...)
	mult := make([]int, len(inShape))
	tile := false
	for i := range inShape {
		if keep[i] == inShape[i] {
			mult[i] = 1
		} else {
			mult[i] = inShape[i]
			tile = true
		}
	}
	if !tile {
		return r, nil
	}
	return TileN(r, mult), nil
}

func (o reduceOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	x := n.Inputs()[0]
	switch o.kind {
	case "sum":
		e, err := expandGradToInput(g, grad, x.Shape(), o.axes)
		if err != nil {
			return nil, err
		}
		return []*graph.Node{e}, nil
	case "mean":
		e, err := expandGradToInput(g, grad, x.Shape(), o.axes)
		if err != nil {
			return nil, err
		}
		count := float32(tensor.SizeOf(x.Shape())) / float32(tensor.SizeOf(n.Shape()))
		return []*graph.Node{Div(e, ScalarConst(g, count))}, nil
	case "max":
		// Route the gradient to max positions: mask = (x == broadcast(max)).
		e, err := expandGradToInput(g, n, x.Shape(), o.axes)
		if err != nil {
			return nil, err
		}
		ge, err := expandGradToInput(g, grad, x.Shape(), o.axes)
		if err != nil {
			return nil, err
		}
		mask := Equal(x, e)
		return []*graph.Node{Mul(ge, mask)}, nil
	}
	return nil, fmt.Errorf("unreachable reduce kind")
}

// Sum reduces over the given axes (nil = all axes).
func Sum(x *graph.Node, axes ...int) *graph.Node {
	return x.Graph().MustApply(reduceOp{kind: "sum", axes: axes}, x)
}

// SumKeep reduces over axes keeping reduced dimensions as 1.
func SumKeep(x *graph.Node, axes ...int) *graph.Node {
	return x.Graph().MustApply(reduceOp{kind: "sum", axes: axes, keepDims: true}, x)
}

// Mean averages over the given axes (nil = all axes).
func Mean(x *graph.Node, axes ...int) *graph.Node {
	return x.Graph().MustApply(reduceOp{kind: "mean", axes: axes}, x)
}

// MeanKeep averages over axes keeping reduced dimensions as 1.
func MeanKeep(x *graph.Node, axes ...int) *graph.Node {
	return x.Graph().MustApply(reduceOp{kind: "mean", axes: axes, keepDims: true}, x)
}

// MaxReduce takes the maximum over the given axes (nil = all axes).
func MaxReduce(x *graph.Node, axes ...int) *graph.Node {
	return x.Graph().MustApply(reduceOp{kind: "max", axes: axes}, x)
}

// MaxReduceKeep takes the maximum over axes keeping reduced dims as 1.
func MaxReduceKeep(x *graph.Node, axes ...int) *graph.Node {
	return x.Graph().MustApply(reduceOp{kind: "max", axes: axes, keepDims: true}, x)
}

// ---- sumTo: reduce a broadcast or tiled gradient to an input shape ----
//
// The gradient of a broadcasting binary op and of Tile. Appears in
// profiles as "Sum", matching how TensorFlow reports the reductions
// those gradients insert.
type sumToOp struct{ target []int }

func (sumToOp) Name() string         { return "Sum" }
func (sumToOp) Class() graph.OpClass { return graph.ClassReduction }
func (o sumToOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("Sum", in, 1); err != nil {
		return nil, err
	}
	// Every input axis must be whole tiles of the target's, which is
	// padded with leading 1s; broadcasting tiles a length-1 axis.
	off := len(in[0]) - len(o.target)
	ok := off >= 0
	for i := 0; ok && i < len(o.target); i++ {
		t, d := o.target[i], in[0][off+i]
		ok = t == d || t > 0 && d%t == 0
	}
	if !ok {
		return nil, fmt.Errorf("Sum(to): %v does not tile %v", o.target, in[0])
	}
	return copyShape(o.target), nil
}
func (o sumToOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.SumToInto(ctx.Pool, out, in[0])
}

// SumTo reduces x to the given shape (the adjoint of broadcasting).
func SumTo(x *graph.Node, shape []int) *graph.Node {
	return sumToShape(x.Graph(), x, shape)
}

// ---- ArgMax (class D, no gradient) ----

type argMaxOp struct{}

func (argMaxOp) Name() string         { return "ArgMax" }
func (argMaxOp) Class() graph.OpClass { return graph.ClassReduction }
func (argMaxOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("ArgMax", in, 1); err != nil {
		return nil, err
	}
	if len(in[0]) == 0 {
		return nil, fmt.Errorf("ArgMax requires rank >= 1")
	}
	return copyShape(in[0][:len(in[0])-1]), nil
}
func (argMaxOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	tensor.ArgMaxInto(out, in[0])
	return nil
}

// ArgMax returns the index of the maximum along the last axis.
func ArgMax(x *graph.Node) *graph.Node { return x.Graph().MustApply(argMaxOp{}, x) }

// ---- Softmax (class D, fused) ----

type softmaxOp struct{}

func (softmaxOp) Name() string         { return "Softmax" }
func (softmaxOp) Class() graph.OpClass { return graph.ClassReduction }
func (softmaxOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("Softmax", in, 1); err != nil {
		return nil, err
	}
	if len(in[0]) == 0 {
		return nil, fmt.Errorf("Softmax requires rank >= 1")
	}
	return copyShape(in[0]), nil
}
func (softmaxOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.SoftmaxInto(ctx.Pool, out, in[0])
}
func (softmaxOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	return []*graph.Node{g.MustApply(softmaxGradOp{}, n, grad)}, nil
}

// softmaxGradOp computes y*(grad - Σ(grad*y)) rowwise.
type softmaxGradOp struct{}

func (softmaxGradOp) Name() string         { return "SoftmaxGrad" }
func (softmaxGradOp) Class() graph.OpClass { return graph.ClassReduction }
func (softmaxGradOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("SoftmaxGrad", in, 2); err != nil {
		return nil, err
	}
	return copyShape(in[0]), nil
}
func (softmaxGradOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	y, grad := in[0], in[1]
	c := y.Shape()[len(y.Shape())-1]
	rows := y.Size() / c
	yd, gd, od := y.Data(), grad.Data(), out.Data()
	ctx.Pool.For(rows, 64, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			var dot float32
			base := r * c
			for j := 0; j < c; j++ {
				dot += yd[base+j] * gd[base+j]
			}
			for j := 0; j < c; j++ {
				od[base+j] = yd[base+j] * (gd[base+j] - dot)
			}
		}
	})
	return nil
}

// Softmax applies a fused row-wise softmax over the last axis.
func Softmax(x *graph.Node) *graph.Node { return x.Graph().MustApply(softmaxOp{}, x) }

// ---- Tile (class D, expansion) ----

type tileOp struct{ multiples []int }

func (tileOp) Name() string         { return "Tile" }
func (tileOp) Class() graph.OpClass { return graph.ClassReduction }
func (o tileOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("Tile", in, 1); err != nil {
		return nil, err
	}
	if len(o.multiples) != len(in[0]) {
		return nil, fmt.Errorf("Tile multiples %v vs rank %d", o.multiples, len(in[0]))
	}
	out := make([]int, len(in[0]))
	for i := range out {
		if o.multiples[i] < 1 {
			return nil, fmt.Errorf("Tile multiple < 1: %v", o.multiples)
		}
		out[i] = in[0][i] * o.multiples[i]
	}
	return out, nil
}
func (o tileOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.TileInto(ctx.Pool, out, in[0], o.multiples)
}
func (o tileOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	return []*graph.Node{g.MustApply(sumToOp{target: copyShape(n.Inputs()[0].Shape())}, grad)}, nil
}

// TileN repeats x multiples[i] times along each axis.
func TileN(x *graph.Node, multiples []int) *graph.Node {
	return x.Graph().MustApply(tileOp{multiples: append([]int(nil), multiples...)}, x)
}
