package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// batchMatMulOp multiplies stacks of matrices: (B,M,K)·(B,K,N) →
// (B,M,N), class A. Attention mechanisms are its natural consumer;
// the suite's models deliberately use the Mul+Tile+Sum decomposition
// the paper profiles, but the fused form is part of a complete
// operation library (and the ablation benchmarks compare the two).
type batchMatMulOp struct{}

func (batchMatMulOp) Name() string         { return "BatchMatMul" }
func (batchMatMulOp) Class() graph.OpClass { return graph.ClassMatrix }

func (batchMatMulOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("BatchMatMul", in, 2); err != nil {
		return nil, err
	}
	a, b := in[0], in[1]
	if len(a) != 3 || len(b) != 3 {
		return nil, fmt.Errorf("BatchMatMul wants rank-3 inputs, got %v %v", a, b)
	}
	if a[0] != b[0] {
		return nil, fmt.Errorf("BatchMatMul batch dims %d vs %d", a[0], b[0])
	}
	if a[2] != b[1] {
		return nil, fmt.Errorf("BatchMatMul inner dims %v × %v", a, b)
	}
	return []int{a[0], a[1], b[2]}, nil
}

// ForwardInto runs the 2-D kernel once per batch element, on views of
// the operands and of out: each product lands where it belongs.
func (batchMatMulOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	a, b := in[0], in[1]
	batch, m, k := a.Shape()[0], a.Shape()[1], a.Shape()[2]
	n := b.Shape()[2]
	for i := 0; i < batch; i++ {
		ai := tensor.FromSlice(a.Data()[i*m*k:(i+1)*m*k], m, k)
		bi := tensor.FromSlice(b.Data()[i*k*n:(i+1)*k*n], k, n)
		ci := tensor.FromSlice(out.Data()[i*m*n:(i+1)*m*n], m, n)
		if err := tensor.MatMulInto(ctx.Pool, ci, ai, bi, false, false); err != nil {
			return err
		}
	}
	return nil
}

func (batchMatMulOp) Cost(in [][]int, out []int) (int64, int64) {
	a, b := in[0], in[1]
	return 2 * int64(a[0]) * int64(a[1]) * int64(a[2]) * int64(b[2]), defaultBytes(in, out)
}

func (batchMatMulOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	a, b := n.Inputs()[0], n.Inputs()[1]
	// gA = G·Bᵀ, gB = Aᵀ·G batchwise, via transposed batch products.
	bt := TransposePerm(b, []int{0, 2, 1})
	at := TransposePerm(a, []int{0, 2, 1})
	ga := BatchMatMul(grad, bt)
	gb := BatchMatMul(at, grad)
	return []*graph.Node{ga, gb}, nil
}

// BatchMatMul returns the batched matrix product of rank-3 nodes.
func BatchMatMul(a, b *graph.Node) *graph.Node {
	return a.Graph().MustApply(batchMatMulOp{}, a, b)
}

// ---- OneHot (class G) ----

// oneHotOp expands integer-valued indices (B) to one-hot rows (B,depth).
type oneHotOp struct{ depth int }

func (oneHotOp) Name() string         { return "OneHot" }
func (oneHotOp) Class() graph.OpClass { return graph.ClassDataMovement }
func (o oneHotOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("OneHot", in, 1); err != nil {
		return nil, err
	}
	if o.depth < 1 {
		return nil, fmt.Errorf("OneHot depth must be positive")
	}
	return append(copyShape(in[0]), o.depth), nil
}
func (o oneHotOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	out.Zero()
	od := out.Data()
	for i, v := range in[0].Data() {
		k := int(v)
		if k < 0 || k >= o.depth {
			return fmt.Errorf("OneHot index %d out of range [0,%d)", k, o.depth)
		}
		od[i*o.depth+k] = 1
	}
	return nil
}

// OneHot expands integer indices to one-hot vectors of the given depth
// (no gradient flows to indices).
func OneHot(indices *graph.Node, depth int) *graph.Node {
	return indices.Graph().MustApply(oneHotOp{depth: depth}, indices)
}

// ---- Split builder: N equal slices along an axis ----

// Split slices x into n equal parts along axis, returning the pieces
// in order. The slices form an exact partition, so autodiff assembles
// their gradients with a single Concat.
func Split(x *graph.Node, axis, n int) []*graph.Node {
	if axis < 0 {
		axis += len(x.Shape())
	}
	total := x.Shape()[axis]
	if n < 1 || total%n != 0 {
		panic(fmt.Sprintf("ops: Split axis %d of length %d into %d parts", axis, total, n))
	}
	part := total / n
	out := make([]*graph.Node, n)
	for i := range out {
		begin := make([]int, len(x.Shape()))
		size := make([]int, len(x.Shape()))
		for j := range size {
			size[j] = -1
		}
		begin[axis] = i * part
		size[axis] = part
		out[i] = SliceN(x, begin, size)
	}
	return out
}

// Stack joins nodes of identical shape along a new leading axis by
// expanding and concatenating (TensorFlow's Pack).
func Stack(xs ...*graph.Node) *graph.Node {
	exp := make([]*graph.Node, len(xs))
	for i, x := range xs {
		exp[i] = ExpandDims(x, 0)
	}
	return ConcatN(0, exp...)
}
