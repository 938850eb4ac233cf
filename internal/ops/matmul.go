package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// matMulOp is the dense 2-D matrix product with optional transposes
// (class A). Its gradient emits further MatMul nodes with adjusted
// transpose flags, as TensorFlow does.
type matMulOp struct{ transA, transB bool }

func (matMulOp) Name() string         { return "MatMul" }
func (matMulOp) Class() graph.OpClass { return graph.ClassMatrix }

func (o matMulOp) dims(in [][]int) (m, k, n int, err error) {
	if len(in) != 2 || len(in[0]) != 2 || len(in[1]) != 2 {
		return 0, 0, 0, fmt.Errorf("MatMul requires two rank-2 inputs, got %v", in)
	}
	m, ka := in[0][0], in[0][1]
	if o.transA {
		m, ka = ka, m
	}
	kb, n := in[1][0], in[1][1]
	if o.transB {
		kb, n = n, kb
	}
	if ka != kb {
		return 0, 0, 0, fmt.Errorf("MatMul inner dims %d vs %d (%v×%v, tA=%v tB=%v)", ka, kb, in[0], in[1], o.transA, o.transB)
	}
	return m, ka, n, nil
}

func (o matMulOp) InferShape(in [][]int) ([]int, error) {
	m, _, n, err := o.dims(in)
	if err != nil {
		return nil, err
	}
	return []int{m, n}, nil
}

func (o matMulOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.MatMulInto(ctx.Pool, out, in[0], in[1], o.transA, o.transB)
}

func (o matMulOp) Cost(in [][]int, out []int) (int64, int64) {
	m, k, n, err := o.dims(in)
	if err != nil {
		return 0, 0
	}
	return 2 * int64(m) * int64(n) * int64(k), defaultBytes(in, out)
}

func (o matMulOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	a, b := n.Inputs()[0], n.Inputs()[1]
	var ga, gb *graph.Node
	// C = op(A)·op(B); g_op(A) = G·op(B)ᵀ, g_op(B) = op(A)ᵀ·G, then
	// transpose back if the input was stored transposed.
	if !o.transA {
		ga = matmul(grad, b, false, !o.transB)
	} else {
		ga = matmul(b, grad, o.transB, true)
	}
	if !o.transB {
		gb = matmul(a, grad, !o.transA, false)
	} else {
		gb = matmul(grad, a, true, o.transA)
	}
	_ = g
	return []*graph.Node{ga, gb}, nil
}

func matmul(a, b *graph.Node, transA, transB bool) *graph.Node {
	return a.Graph().MustApply(matMulOp{transA: transA, transB: transB}, a, b)
}

// MatMul returns a·b for rank-2 nodes.
func MatMul(a, b *graph.Node) *graph.Node { return matmul(a, b, false, false) }

// MatMulT returns op(a)·op(b) with explicit transpose flags.
func MatMulT(a, b *graph.Node, transA, transB bool) *graph.Node {
	return matmul(a, b, transA, transB)
}
