package tensor

import (
	"fmt"
	"math"
)

// This file implements the fused attention kernel: out =
// softmax(Q·Kᵀ·scale)·V for a batch of G independent attention groups
// (batch × heads), all operands shaped (G, S, Dh). The naive chain
// materializes the (G, S, S) score and probability matrices — for
// sequence lengths past a few hundred that traffic dominates the op.
// The fused kernel walks each group in blocks of R = min(S, blockM)
// query rows and holds one R×S score block per lane, so its working
// set is O(R·S) per lane, never (G, S, S). For each block it
//
//  1. computes the scores Q_blk·Kᵀ with the GEMM (matmulLane, K read
//     transposed) into the lane's score block;
//  2. scales each row and runs softmax on it in place (attnSoftmaxRow);
//  3. computes O_blk = P_blk·V with the GEMM, straight into out.
//
// # Bit-equality contract
//
// The kernel is bit-identical to the unfused reference chain
// (BatchMatMul → scalar Mul → Softmax → BatchMatMul) at every pool
// width. Steps 1 and 3 are that chain's own GEMM, whose per-element
// accumulation order does not depend on how many rows a product has
// (see matmulInto), and step 2 replays the Mul and softmaxInto
// verbatim. A (group, row block) unit writes only its own rows of out,
// so the pool's deterministic chunking gives the same bits at every
// intra-op width. The products run on the executing lane and open no
// nested region.

// attnGrain is the For grain for one (group, row block) unit of r
// query rows: each costs about 2·r·S·Dh mul-adds for QKᵀ and P·V plus
// r·S exps. Purely a function of shape, per the determinism contract.
func attnGrain(r, s, dh int) int { return 1 + 65536/(3*r*s*dh+1) }

// Attention computes softmax(Q·Kᵀ·scale)·V with the fused kernel; see
// AttentionInto.
func Attention(p *Pool, q, k, v *Tensor, scale float32) (*Tensor, error) {
	out := New(q.shape...)
	if err := AttentionInto(p, out, q, k, v, scale); err != nil {
		return nil, err
	}
	return out, nil
}

// AttentionInto computes out = softmax(Q·Kᵀ·scale)·V for rank-3
// operands shaped (G, S, Dh) without materializing the (G, S, S)
// score matrix. out must have q's shape, is fully overwritten, and
// must not alias any input. Results are bit-identical to the unfused
// BatchMatMul/Mul/Softmax/BatchMatMul chain at every pool width.
func AttentionInto(p *Pool, out, q, k, v *Tensor, scale float32) error {
	g, s, dh, err := attentionDims(out, q, k, v)
	if err != nil {
		return err
	}
	checkNoAlias("AttentionInto", out, q, k, v)
	if len(out.data) == 0 {
		return nil // nothing to write, and S = 0 has no row block
	}
	r := min(s, blockM)
	a := attnBlocks{q: q.data, k: k.data, v: v.data, out: out.data, s: s, dh: dh, r: r, perGroup: (s + r - 1) / r, scale: scale}
	units, grain := g*a.perGroup, attnGrain(r, s, dh)
	if p.inline(units, grain) {
		a.run(p, 0, 0, units)
	} else {
		a.forUnits(p, units, grain)
	}
	return nil
}

// attnBlocks is what a (group, row block) unit needs: the operands,
// the shape, the block height r and the number of blocks per group.
type attnBlocks struct {
	q, k, v, out       []float32
	s, dh, r, perGroup int
	scale              float32
}

// run computes units [lo,hi) on lane; unit u is row block u%perGroup
// of group u/perGroup.
func (a attnBlocks) run(p *Pool, lane, lo, hi int) {
	block := p.laneScratch(lane, scratchAttn, a.r*a.s)
	sd := a.s * a.dh
	for u := lo; u < hi; u++ {
		g, i0 := u/a.perGroup, u%a.perGroup*a.r
		rows := min(a.r, a.s-i0)
		kg, vg := a.k[g*sd:(g+1)*sd], a.v[g*sd:(g+1)*sd]
		rowsAt := g*sd + i0*a.dh
		scores := block[:rows*a.s]
		matmulLane(p, lane, scores, a.q[rowsAt:], kg, rows, a.s, a.dh, a.dh, a.dh, false, true, false)
		for i := 0; i < rows; i++ {
			attnSoftmaxRow(scores[i*a.s:(i+1)*a.s], a.scale)
		}
		matmulLane(p, lane, a.out[rowsAt:], scores, vg, rows, a.dh, a.s, a.s, a.dh, false, false, false)
	}
}

// forUnits runs the units as a pool region. It takes a by value so that
// only a region that splits moves one to the heap for its closure (see
// Pool.inline).
func (a attnBlocks) forUnits(p *Pool, units, grain int) {
	p.ForLane(units, grain, func(lane, lo, hi int) { a.run(p, lane, lo, hi) })
}

// attnSoftmaxRow turns one row of raw scores into probabilities in
// place with the reference chain's arithmetic: the scale multiply
// rounds each score once, like the elementwise Mul, then softmaxInto's
// sequence verbatim — max seeded from element 0, exp and sum
// ascending, one 1/sum reciprocal applied per element — so ±Inf and
// NaN rows degenerate identically to the reference.
func attnSoftmaxRow(row []float32, scale float32) {
	m := row[0] * scale
	for j, x := range row {
		x *= scale
		row[j] = x
		if x > m {
			m = x
		}
	}
	var sum float32
	for j, x := range row {
		e := float32(math.Exp(float64(x - m)))
		row[j] = e
		sum += e
	}
	inv := 1 / sum
	for j := range row {
		row[j] *= inv
	}
}

func attentionDims(out, q, k, v *Tensor) (g, s, dh int, err error) {
	if len(q.shape) != 3 {
		return 0, 0, 0, fmt.Errorf("tensor: Attention wants rank-3 (G,S,Dh) operands, got q %v", q.shape)
	}
	if !SameShape(q.shape, k.shape) || !SameShape(q.shape, v.shape) {
		return 0, 0, 0, fmt.Errorf("tensor: Attention operand shapes differ: q %v k %v v %v", q.shape, k.shape, v.shape)
	}
	if !SameShape(out.shape, q.shape) {
		return 0, 0, 0, fmt.Errorf("tensor: Attention destination %v, want %v", out.shape, q.shape)
	}
	return q.shape[0], q.shape[1], q.shape[2], nil
}
