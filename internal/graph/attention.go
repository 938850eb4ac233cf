package graph

import (
	"repro/internal/tensor"
)

// AttentionComposer marks operations that can replace a whole
// softmax(score·scale)·value chain with one fused kernel. The receiver
// is the final (probabilities × values) matmul of the chain;
// ComposeAttention receives the upstream ops (the Softmax, the scalar
// Mul, the score matmul and the key Transpose) plus the scale
// constant's value, and returns the fused op or declines. The
// structural gates — node kinds, reader counts, purity — are the pass's
// job; the composer only judges whether the ops themselves form the
// pattern it implements.
type AttentionComposer interface {
	Op
	ComposeAttention(softmax, scale, score, transpose Op, scaleVal *tensor.Tensor) (Op, bool)
}

// FuseAttention rewrites Softmax(BatchMatMul(Q, Transpose(K))·scale)·V
// chains into single fused attention nodes. The
// rewrite is in place and mutates only the final consumer node (the
// probabilities×values matmul), so node identity is preserved —
// fetches, gradients and signatures referencing it keep working — and
// the absorbed chain merely goes dead.
//
// Every interior node of the chain (the Softmax, the scalar Mul, the
// score matmul and the key Transpose) must be:
//
//   - a KindOp node — Variables, Placeholders and Consts stay put;
//   - pure: not Impure and not a Mutator, on either side, so stateful
//     kernels and in-place updates keep their scheduling barriers;
//   - single-reader: an intermediate with a second consumer anywhere
//     in the graph (gradient taps included) stays materialized, so
//     nothing is ever computed twice. This is why training graphs must
//     be fused before gradient construction — the backward pass reads
//     the probability matrix, and fusing afterwards would be blocked
//     here (fusedAttentionOp instead recomputes it in its own Grad);
//   - not listed in keep: externally fetched producers stay.
//
// The fused kernel applies the same float operations in the same order
// as the unfused chain, so results are bit-identical with fusion on or
// off. Returns the number of chains rewritten.
func FuseAttention(g *Graph, keep ...*Node) int {
	keepSet := make(map[*Node]bool, len(keep))
	for _, n := range keep {
		keepSet[n] = true
	}
	counts := make(map[*Node]int, len(g.nodes))
	for _, n := range g.nodes {
		for _, in := range n.inputs {
			counts[in]++
		}
	}
	fusible := func(n *Node) bool {
		if n.kind != KindOp || keepSet[n] || counts[n] != 1 {
			return false
		}
		if _, impure := n.op.(Impure); impure {
			return false
		}
		if _, mut := n.op.(Mutator); mut {
			return false
		}
		return true
	}
	fused := 0
	for _, n := range g.nodes { // insertion order is topological
		if n.kind != KindOp || len(n.inputs) != 2 {
			continue
		}
		if _, impure := n.op.(Impure); impure {
			continue
		}
		if _, mut := n.op.(Mutator); mut {
			continue
		}
		comp, ok := n.op.(AttentionComposer)
		if !ok {
			continue
		}
		w, vNode := n.inputs[0], n.inputs[1] // probabilities, values
		if !fusible(w) || len(w.inputs) != 1 {
			continue
		}
		s := w.inputs[0] // scaled scores
		if !fusible(s) || len(s.inputs) != 2 {
			continue
		}
		// The scale is a size-1 constant on either side of the Mul.
		var p, scaleNode *Node
		for i, in := range s.inputs {
			if in.kind == KindConst && in.value != nil && in.value.Size() == 1 {
				p, scaleNode = s.inputs[1-i], in
				break
			}
		}
		if p == nil || !fusible(p) || len(p.inputs) != 2 {
			continue
		}
		qNode, ktNode := p.inputs[0], p.inputs[1]
		if !fusible(ktNode) || len(ktNode.inputs) != 1 {
			continue
		}
		kNode := ktNode.inputs[0]
		f, ok := comp.ComposeAttention(w.op, s.op, p.op, ktNode.op, scaleNode.value)
		if !ok {
			continue
		}
		outShape, err := f.InferShape([][]int{qNode.shape, kNode.shape, vNode.shape})
		if err != nil || !tensor.SameShape(outShape, n.shape) {
			continue
		}
		// Bookkeeping: n stops reading the probability node and reads
		// Q and K directly; the dead chain's own reads stay counted,
		// which only makes later single-reader gates more conservative.
		counts[w]--
		counts[qNode]++
		counts[kNode]++
		n.op, n.inputs, n.name = f, []*Node{qNode, kNode, vNode}, f.Name()
		fused++
	}
	return fused
}
