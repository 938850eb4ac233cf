package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// ---- Reshape (class G) ----

type reshapeOp struct{ target []int }

func (reshapeOp) Name() string         { return "Reshape" }
func (reshapeOp) Class() graph.OpClass { return graph.ClassDataMovement }

// resolveReshape expands a single -1 in target using the input size.
func resolveReshape(target []int, inSize int) ([]int, error) {
	out := append([]int(nil), target...)
	neg := -1
	prod := 1
	for i, d := range out {
		if d == -1 {
			if neg >= 0 {
				return nil, fmt.Errorf("Reshape allows at most one -1: %v", target)
			}
			neg = i
			continue
		}
		if d < 0 {
			return nil, fmt.Errorf("Reshape negative dim: %v", target)
		}
		prod *= d
	}
	if neg >= 0 {
		if prod == 0 || inSize%prod != 0 {
			return nil, fmt.Errorf("Reshape cannot infer -1 for size %d in %v", inSize, target)
		}
		out[neg] = inSize / prod
		prod *= out[neg]
	}
	if prod != inSize {
		return nil, fmt.Errorf("Reshape size mismatch: %v for %d elements", target, inSize)
	}
	return out, nil
}

func (o reshapeOp) InferShape(in [][]int) ([]int, error) {
	if len(in) != 1 && len(in) != 2 {
		return nil, fmt.Errorf("Reshape expects 1 input (plus optional shape input)")
	}
	return resolveReshape(o.target, tensor.SizeOf(in[0]))
}

// View implements graph.ViewOp.
func (o reshapeOp) View(in []*tensor.Tensor) (*tensor.Tensor, error) {
	shape, err := resolveReshape(o.target, in[0].Size())
	if err != nil {
		return nil, err
	}
	return in[0].Reshape(shape...), nil
}
func (o reshapeOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	back := Reshape(grad, n.Inputs()[0].Shape()...)
	out := make([]*graph.Node, len(n.Inputs()))
	out[0] = back
	return out, nil
}

// Reshape returns x viewed with a new shape; one dimension may be -1.
func Reshape(x *graph.Node, shape ...int) *graph.Node {
	return x.Graph().MustApply(reshapeOp{target: append([]int(nil), shape...)}, x)
}

// ReshapeLike reshapes x to the static shape of template, consuming a
// Shape node the way dynamic TensorFlow reshapes do (the pattern that
// puts Shape ops in the paper's memnet profile).
func ReshapeLike(x, template *graph.Node) *graph.Node {
	sh := ShapeOf(template)
	return x.Graph().MustApply(reshapeOp{target: copyShape(template.Shape())}, x, sh)
}

// ExpandDims inserts a size-1 axis at position axis.
func ExpandDims(x *graph.Node, axis int) *graph.Node {
	s := x.Shape()
	if axis < 0 {
		axis += len(s) + 1
	}
	out := make([]int, 0, len(s)+1)
	out = append(out, s[:axis]...)
	out = append(out, 1)
	out = append(out, s[axis:]...)
	return Reshape(x, out...)
}

// Squeeze removes all size-1 axes (or just the given ones).
func Squeeze(x *graph.Node, axes ...int) *graph.Node {
	s := x.Shape()
	drop := map[int]bool{}
	if len(axes) == 0 {
		for i, d := range s {
			if d == 1 {
				drop[i] = true
			}
		}
	} else {
		for _, a := range axes {
			if a < 0 {
				a += len(s)
			}
			drop[a] = true
		}
	}
	var out []int
	for i, d := range s {
		if drop[i] && d == 1 {
			continue
		}
		out = append(out, d)
	}
	return Reshape(x, out...)
}

// ---- Shape (class G, no gradient) ----

type shapeOp struct{}

func (shapeOp) Name() string         { return "Shape" }
func (shapeOp) Class() graph.OpClass { return graph.ClassDataMovement }
func (shapeOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("Shape", in, 1); err != nil {
		return nil, err
	}
	return []int{len(in[0])}, nil
}
func (shapeOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	for i, d := range in[0].Shape() {
		out.Data()[i] = float32(d)
	}
	return nil
}

// ShapeOf returns the runtime shape of x as a rank-1 tensor.
func ShapeOf(x *graph.Node) *graph.Node { return x.Graph().MustApply(shapeOp{}, x) }

// ---- Identity (class G) ----

type identityOp struct{}

func (identityOp) Name() string         { return "Identity" }
func (identityOp) Class() graph.OpClass { return graph.ClassDataMovement }
func (identityOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("Identity", in, 1); err != nil {
		return nil, err
	}
	return copyShape(in[0]), nil
}

// View implements graph.ViewOp.
func (identityOp) View(in []*tensor.Tensor) (*tensor.Tensor, error) { return in[0], nil }
func (identityOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	return []*graph.Node{grad}, nil
}

// IsIdentity implements graph.IdentityOp.
func (identityOp) IsIdentity() bool { return true }

// Identity passes x through unchanged.
func Identity(x *graph.Node) *graph.Node { return x.Graph().MustApply(identityOp{}, x) }

// ---- Transpose (class G) ----

type transposeOp struct{ perm []int }

func (transposeOp) Name() string         { return "Transpose" }
func (transposeOp) Class() graph.OpClass { return graph.ClassDataMovement }
func (o transposeOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("Transpose", in, 1); err != nil {
		return nil, err
	}
	if len(o.perm) != len(in[0]) {
		return nil, fmt.Errorf("Transpose perm %v vs rank %d", o.perm, len(in[0]))
	}
	seen := make([]bool, len(o.perm))
	out := make([]int, len(o.perm))
	for i, a := range o.perm {
		if a < 0 || a >= len(o.perm) || seen[a] {
			return nil, fmt.Errorf("Transpose perm %v not a permutation", o.perm)
		}
		seen[a] = true
		out[i] = in[0][a]
	}
	return out, nil
}
func (o transposeOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.TransposeInto(ctx.Pool, out, in[0], o.perm)
}
func (o transposeOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	inv := make([]int, len(o.perm))
	for i, a := range o.perm {
		inv[a] = i
	}
	return []*graph.Node{TransposePerm(grad, inv)}, nil
}

// Transpose swaps the two axes of a matrix.
func Transpose(x *graph.Node) *graph.Node { return TransposePerm(x, []int{1, 0}) }

// TransposePerm permutes the axes of x.
func TransposePerm(x *graph.Node, perm []int) *graph.Node {
	return x.Graph().MustApply(transposeOp{perm: append([]int(nil), perm...)}, x)
}

// ---- Concat (class G) ----

type concatOp struct{ axis int }

func (concatOp) Name() string         { return "Concat" }
func (concatOp) Class() graph.OpClass { return graph.ClassDataMovement }
func (o concatOp) InferShape(in [][]int) ([]int, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("Concat requires inputs")
	}
	axis := o.axis
	if axis < 0 {
		axis += len(in[0])
	}
	if axis < 0 || axis >= len(in[0]) {
		return nil, fmt.Errorf("Concat axis %d out of range", o.axis)
	}
	out := copyShape(in[0])
	total := 0
	for _, s := range in {
		if len(s) != len(out) {
			return nil, fmt.Errorf("Concat rank mismatch")
		}
		for i := range s {
			if i != axis && s[i] != out[i] {
				return nil, fmt.Errorf("Concat shape mismatch %v vs %v", s, out)
			}
		}
		total += s[axis]
	}
	out[axis] = total
	return out, nil
}
func (o concatOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.ConcatInto(ctx.Pool, out, o.axis, in...)
}
func (o concatOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	axis := o.axis
	if axis < 0 {
		axis += len(n.Shape())
	}
	outs := make([]*graph.Node, len(n.Inputs()))
	off := 0
	for i, in := range n.Inputs() {
		begin := make([]int, len(n.Shape()))
		size := copyShape(in.Shape())
		begin[axis] = off
		outs[i] = SliceN(grad, begin, size)
		off += in.Shape()[axis]
	}
	return outs, nil
}

// ConcatN joins nodes along axis.
func ConcatN(axis int, xs ...*graph.Node) *graph.Node {
	return xs[0].Graph().MustApply(concatOp{axis: axis}, xs...)
}

// ---- Slice (class G) ----

type sliceOp struct{ begin, size []int }

func (sliceOp) Name() string         { return "Slice" }
func (sliceOp) Class() graph.OpClass { return graph.ClassDataMovement }
func (o sliceOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("Slice", in, 1); err != nil {
		return nil, err
	}
	if len(o.begin) != len(in[0]) || len(o.size) != len(in[0]) {
		return nil, fmt.Errorf("Slice begin/size rank mismatch")
	}
	out := make([]int, len(in[0]))
	for i := range out {
		s := o.size[i]
		if s == -1 {
			s = in[0][i] - o.begin[i]
		}
		if o.begin[i] < 0 || s < 0 || o.begin[i]+s > in[0][i] {
			return nil, fmt.Errorf("Slice [%v:%v] out of bounds for %v", o.begin, o.size, in[0])
		}
		out[i] = s
	}
	return out, nil
}
func (o sliceOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.SliceTensorInto(ctx.Pool, out, in[0], o.begin, o.size)
}

// Window implements graph.Window for a Slice on the last axis.
func (o sliceOp) Window(in []int) (col, rowStride int, ok bool) {
	last := len(in) - 1
	if last < 0 || len(o.begin) != len(in) || len(o.size) != len(in) {
		return 0, 0, false
	}
	for k := 0; k < last; k++ {
		if o.begin[k] != 0 || (o.size[k] != -1 && o.size[k] != in[k]) {
			return 0, 0, false
		}
	}
	return o.begin[last], in[last], true
}

func (o sliceOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	// The adjoint zero-pads the gradient back into the input extent,
	// which TensorFlow reports as a Pad op.
	in := n.Inputs()[0]
	before := copyShape(o.begin)
	after := make([]int, len(before))
	for i := range after {
		after[i] = in.Shape()[i] - o.begin[i] - n.Shape()[i]
	}
	return []*graph.Node{PadN(grad, before, after)}, nil
}

// SliceN extracts the region [begin, begin+size) from x; -1 in size
// means "through the end of the axis".
func SliceN(x *graph.Node, begin, size []int) *graph.Node {
	return x.Graph().MustApply(sliceOp{
		begin: append([]int(nil), begin...),
		size:  append([]int(nil), size...),
	}, x)
}

// ---- Pad (class G) ----

type padOp struct{ before, after []int }

func (padOp) Name() string         { return "Pad" }
func (padOp) Class() graph.OpClass { return graph.ClassDataMovement }
func (o padOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("Pad", in, 1); err != nil {
		return nil, err
	}
	if len(o.before) != len(in[0]) || len(o.after) != len(in[0]) {
		return nil, fmt.Errorf("Pad rank mismatch")
	}
	out := make([]int, len(in[0]))
	for i := range out {
		if o.before[i] < 0 || o.after[i] < 0 {
			return nil, fmt.Errorf("Pad amounts must be non-negative")
		}
		out[i] = in[0][i] + o.before[i] + o.after[i]
	}
	return out, nil
}
func (o padOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.PadInto(ctx.Pool, out, in[0], o.before, o.after)
}
func (o padOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	size := copyShape(n.Inputs()[0].Shape())
	return []*graph.Node{SliceN(grad, o.before, size)}, nil
}

// PadAmounts implements graph.ZeroPadGradOp.
func (o padOp) PadAmounts() (before, after []int) { return o.before, o.after }

// The autodiff engine assembles exact pad partitions (slice gradients
// of an unrolled tensor) with a single Concat; register the hook.
func init() {
	graph.RegisterConcatAssembler(func(g *graph.Graph, axis int, pieces []*graph.Node) (*graph.Node, error) {
		return g.Apply(concatOp{axis: axis}, pieces...)
	})
}

// PadN zero-pads x with before/after amounts per axis.
func PadN(x *graph.Node, before, after []int) *graph.Node {
	return x.Graph().MustApply(padOp{
		before: append([]int(nil), before...),
		after:  append([]int(nil), after...),
	}, x)
}

// ---- Gather / ScatterAdd (class G) ----

type gatherOp struct{}

func (gatherOp) Name() string         { return "Gather" }
func (gatherOp) Class() graph.OpClass { return graph.ClassDataMovement }
func (gatherOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("Gather", in, 2); err != nil {
		return nil, err
	}
	if len(in[0]) < 1 {
		return nil, fmt.Errorf("Gather params must have rank >= 1")
	}
	out := append([]int(nil), in[1]...)
	out = append(out, in[0][1:]...)
	return out, nil
}
func (gatherOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.GatherRowsInto(ctx.Pool, out, in[0], in[1])
}
func (gatherOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	params, idx := n.Inputs()[0], n.Inputs()[1]
	sc := g.MustApply(scatterAddOp{paramShape: copyShape(params.Shape())}, grad, idx)
	return []*graph.Node{sc, nil}, nil
}

// Gather selects rows of params (axis 0) by integer-valued indices;
// the index shape replaces axis 0 (embedding lookup).
func Gather(params, indices *graph.Node) *graph.Node {
	return params.Graph().MustApply(gatherOp{}, params, indices)
}

type scatterAddOp struct{ paramShape []int }

func (scatterAddOp) Name() string         { return "ScatterAdd" }
func (scatterAddOp) Class() graph.OpClass { return graph.ClassDataMovement }
func (o scatterAddOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("ScatterAdd", in, 2); err != nil {
		return nil, err
	}
	return copyShape(o.paramShape), nil
}
func (scatterAddOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	tensor.ScatterAddRowsInto(ctx.Pool, out, in[0], in[1])
	return nil
}

// ---- NoOp group (class G): joins side-effecting fetches ----

type noOp struct{}

func (noOp) Name() string         { return "NoOp" }
func (noOp) Class() graph.OpClass { return graph.ClassDataMovement }
func (noOp) InferShape(in [][]int) ([]int, error) {
	return []int{}, nil
}

// ForwardInto writes the group's own scalar: its result references none
// of its inputs, so fetching it does not keep their buffers live.
func (noOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	out.Data()[0] = 0
	return nil
}

// Impure implements graph.Impure: the group exists for its side
// effects (its inputs' execution), so it must never be merged away.
func (noOp) Impure() {}

// Group returns a scalar node that depends on every input, used to
// fetch a set of side-effecting ops (optimizer updates) at once.
func Group(g *graph.Graph, deps ...*graph.Node) *graph.Node {
	return g.MustApply(noOp{}, deps...)
}
