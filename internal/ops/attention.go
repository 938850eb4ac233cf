package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// fusedAttentionOp computes softmax(Q·Kᵀ·scale)·V over rank-3 (G,S,Dh)
// operands in one kernel (tensor.AttentionInto), class A. It is the
// rewrite target of graph.FuseAttention: the kernel walks blocks of
// query rows, running both products on the one GEMM, and never
// materializes the (G,S,S) score matrix, but it applies the same float
// operations in the same order as the unfused chain, so results are
// bit-identical with fusion on or off (see the determinism note in
// tensor/attention.go).
type fusedAttentionOp struct{ scale float32 }

func (fusedAttentionOp) Name() string         { return "FusedAttention" }
func (fusedAttentionOp) Class() graph.OpClass { return graph.ClassMatrix }

func (fusedAttentionOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("FusedAttention", in, 3); err != nil {
		return nil, err
	}
	q, k, v := in[0], in[1], in[2]
	if len(q) != 3 || !tensor.SameShape(q, k) || !tensor.SameShape(q, v) {
		return nil, fmt.Errorf("FusedAttention wants three equal rank-3 (G,S,Dh) inputs, got %v %v %v", q, k, v)
	}
	return copyShape(q), nil
}

func (o fusedAttentionOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.AttentionInto(ctx.Pool, out, in[0], in[1], in[2], o.scale)
}

func (o fusedAttentionOp) Cost(in [][]int, out []int) (int64, int64) {
	q := in[0]
	g, s, dh := int64(q[0]), int64(q[1]), int64(q[2])
	// QKᵀ and P·V mul-adds; bytes are the operands only — the (G,S,S)
	// intermediate never exists.
	return 4 * g * s * s * dh, defaultBytes(in, out)
}

// Grad emits the recompute subgraph: the fused forward discards the
// probability matrix, so the backward pass rebuilds the unfused chain
// W = softmax(Q·Kᵀ·scale) — bit-identical to what the fused kernel
// computed internally — and differentiates through it. The recompute
// trades a second score evaluation for never retaining (G,S,S)
// activations, the same memory/time trade the blocked forward makes.
func (o fusedAttentionOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	q, k, v := n.Inputs()[0], n.Inputs()[1], n.Inputs()[2]
	sc := ScalarConst(g, o.scale)
	kt := TransposePerm(k, []int{0, 2, 1})
	w := Softmax(Mul(BatchMatMul(q, kt), sc)) // (G,S,S) probabilities

	dW := BatchMatMul(grad, TransposePerm(v, []int{0, 2, 1}))
	dS := Mul(g.MustApply(softmaxGradOp{}, w, dW), sc)
	dQ := BatchMatMul(dS, k)
	dK := BatchMatMul(TransposePerm(dS, []int{0, 2, 1}), q)
	dV := BatchMatMul(TransposePerm(w, []int{0, 2, 1}), grad)
	return []*graph.Node{dQ, dK, dV}, nil
}

// FusedAttention applies softmax(Q·Kᵀ·scale)·V as one fused op over
// rank-3 (G,S,Dh) nodes — the form graph.FuseAttention
// rewrites the unfused chain into.
func FusedAttention(q, k, v *graph.Node, scale float32) *graph.Node {
	return q.Graph().MustApply(fusedAttentionOp{scale: scale}, q, k, v)
}

// NaiveAttention builds the unfused batched reference chain
// softmax(Q·Kᵀ·scale)·V — Transpose, BatchMatMul, Mul, Softmax,
// BatchMatMul — retained as the bit-equality baseline for the fused
// kernel and as the pattern graph.FuseAttention recognizes.
func NaiveAttention(q, k, v *graph.Node, scale float32) *graph.Node {
	kt := TransposePerm(k, []int{0, 2, 1})
	scores := BatchMatMul(q, kt)
	w := Softmax(Mul(scores, ScalarConst(q.Graph(), scale)))
	return BatchMatMul(w, v)
}

// ComposeAttention implements graph.AttentionComposer for the final
// probabilities×values BatchMatMul of an attention chain. It inspects
// the ops upstream — Softmax over a scalar Mul over a BatchMatMul
// whose right operand is a (0,2,1) Transpose — and, when they form
// exactly the softmax(Q·Kᵀ·scale)·V pattern, returns the fused op. The graph pass has already verified the structural
// gates (single-reader, pure, non-keep intermediates).
func (batchMatMulOp) ComposeAttention(softmax, scale, score, transpose graph.Op, scaleVal *tensor.Tensor) (graph.Op, bool) {
	if _, ok := softmax.(softmaxOp); !ok {
		return nil, false
	}
	if mul, ok := scale.(pointwiseOp); !ok || mul.fn.Op != tensor.Mul {
		return nil, false
	}
	if _, ok := score.(batchMatMulOp); !ok {
		return nil, false
	}
	tr, ok := transpose.(transposeOp)
	if !ok || len(tr.perm) != 3 || tr.perm[0] != 0 || tr.perm[1] != 2 || tr.perm[2] != 1 {
		return nil, false
	}
	if scaleVal == nil || scaleVal.Size() != 1 {
		return nil, false
	}
	return fusedAttentionOp{scale: scaleVal.Data()[0]}, true
}
