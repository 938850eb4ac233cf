package tensor

import (
	"fmt"
	"math"
)

// This file implements the fused streaming-softmax attention kernel:
// out = softmax(Q·Kᵀ·scale)·V for a batch of G independent attention
// groups (batch × heads), all operands shaped (G, S, Dh). The naive
// chain materializes the (G, S, S) score and probability matrices —
// for sequence lengths past a few hundred that traffic dominates the
// op and makes it arena-bandwidth-bound rather than FLOP-bound. The
// fused kernel streams K and V through one per-lane score row of
// length S instead, so its working set is O(S) per lane no matter the
// sequence length.
//
// # Bit-equality contract
//
// The kernel is bit-identical to the unfused reference chain
// (BatchMatMul → scalar Mul → Softmax → BatchMatMul) at every pool
// width, because every float32 operation happens in the same order:
//
//   - the QKᵀ dot runs ascending over Dh with a single accumulator —
//     exactly the per-element accumulation order the matmul kernels
//     guarantee (see the determinism note in matmul.go), each product
//     written float32(a*b) as there, so that a target with an FMA
//     cannot fuse here what the matmul kernels keep apart;
//   - the scale multiply rounds the finished dot once, like the
//     elementwise Mul that follows the reference BatchMatMul;
//   - the softmax replays softmaxInto verbatim: running max with
//     `if v > m` seeded from element 0, exp/sum ascending, then one
//     1/sum reciprocal applied per element (so ±Inf and NaN rows
//     degenerate identically to the reference);
//   - the probability·V accumulation runs ascending over S with one
//     accumulator per output element, again matching the matmul
//     order.
//
// Rows (one per query position) are index-pure — row (g,i) writes only
// out[g,i,:] — so the pool's deterministic chunking gives bit-identical
// results at every intra-op width.

// attnGrain is the For grain for one (group, query-row) unit: each row
// costs about 2·S·Dh mul-adds for QKᵀ, S exps, and S·Dh mul-adds for
// the P·V product. Purely a function of shape, per the determinism
// contract.
func attnGrain(s, dh int) int { return 1 + 65536/(3*s*dh+1) }

// Attention computes softmax(Q·Kᵀ·scale)·V with the fused streaming
// kernel; see AttentionInto.
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
	qd, kd, vd, od := q.data, k.data, v.data, out.data
	p.ForLane(g*s, attnGrain(s, dh), func(lane, lo, hi int) {
		// Two score rows of scratch: adjacent query rows of the same
		// group are processed as a pair so the streamed K and V rows
		// are loaded once per pair. Pairing changes only the memory
		// access interleaving — each output element keeps its own
		// single accumulator and order — so results are independent
		// of how chunk boundaries split pairs.
		scratch := p.laneScratch(lane, scratchAttn, 2*s)
		for r := lo; r < hi; {
			gi := r / s
			kg := kd[gi*s*dh : (gi+1)*s*dh]
			vg := vd[gi*s*dh : (gi+1)*s*dh]
			if r+1 < hi && (r+1)/s == gi {
				attnRowPair(scratch, qd[r*dh:(r+2)*dh], kg, vg, od[r*dh:(r+2)*dh], s, dh, scale)
				r += 2
			} else {
				attnRow(scratch[:s], qd[r*dh:(r+1)*dh], kg, vg, od[r*dh:(r+1)*dh], s, dh, scale)
				r++
			}
		}
	})
	return nil
}

// attnRow computes one query row: scores into row (length s), softmax
// in place, then the probability·V product into orow. Keys are blocked
// four at a time purely for load reuse; every score keeps a single
// ascending-Dh accumulator (the matmul per-element order) and the
// scale multiply rounds each finished dot once, like the elementwise
// Mul after the reference BatchMatMul.
func attnRow(row, qrow, kg, vg, orow []float32, s, dh int, scale float32) {
	j := 0
	for ; j+4 <= s; j += 4 {
		k0 := kg[j*dh:][:dh]
		k1 := kg[(j+1)*dh:][:dh]
		k2 := kg[(j+2)*dh:][:dh]
		k3 := kg[(j+3)*dh:][:dh]
		var d0, d1, d2, d3 float32
		for d := 0; d < dh; d++ {
			qv := qrow[d]
			d0 += float32(qv * k0[d])
			d1 += float32(qv * k1[d])
			d2 += float32(qv * k2[d])
			d3 += float32(qv * k3[d])
		}
		row[j] = d0 * scale
		row[j+1] = d1 * scale
		row[j+2] = d2 * scale
		row[j+3] = d3 * scale
	}
	for ; j < s; j++ {
		krow := kg[j*dh:][:dh]
		var dot float32
		for d := 0; d < dh; d++ {
			dot += float32(qrow[d] * krow[d])
		}
		row[j] = dot * scale
	}

	inv := attnSoftmaxRow(row)

	// out = Σ_j p_j · v_j, ascending over j with one accumulator per
	// output element: normalize each weight first (the reference's
	// in-place `*= inv`), then accumulate — the BatchMatMul(P, V)
	// element order. The j-blocking issues the same adds in the same
	// order as a serial j loop, as separate statements so no fused
	// multiply-add can merge them.
	for d := range orow {
		orow[d] = 0
	}
	j = 0
	for ; j+4 <= s; j += 4 {
		p0 := row[j] * inv
		p1 := row[j+1] * inv
		p2 := row[j+2] * inv
		p3 := row[j+3] * inv
		v0 := vg[j*dh:][:dh]
		v1 := vg[(j+1)*dh:][:dh]
		v2 := vg[(j+2)*dh:][:dh]
		v3 := vg[(j+3)*dh:][:dh]
		for d := 0; d < dh; d++ {
			o := orow[d]
			o += float32(p0 * v0[d])
			o += float32(p1 * v1[d])
			o += float32(p2 * v2[d])
			o += float32(p3 * v3[d])
			orow[d] = o
		}
	}
	for ; j < s; j++ {
		pj := row[j] * inv
		vrow := vg[j*dh:][:dh]
		for d := 0; d < dh; d++ {
			orow[d] += float32(pj * vrow[d])
		}
	}
}

// attnRowPair computes two adjacent query rows of one group together,
// streaming each K and V row once for both queries. qrows and orows
// hold the two rows back to back; scratch holds two score rows.
func attnRowPair(scratch, qrows, kg, vg, orows []float32, s, dh int, scale float32) {
	rowA, rowB := scratch[:s], scratch[s:2*s]
	qa, qb := qrows[:dh], qrows[dh:][:dh]
	oa, ob := orows[:dh], orows[dh:][:dh]
	j := 0
	for ; j+4 <= s; j += 4 {
		k0 := kg[j*dh:][:dh]
		k1 := kg[(j+1)*dh:][:dh]
		k2 := kg[(j+2)*dh:][:dh]
		k3 := kg[(j+3)*dh:][:dh]
		var a0, a1, a2, a3, b0, b1, b2, b3 float32
		d := 0
		for ; d+2 <= dh; d += 2 {
			qv, qw := qa[d], qb[d]
			a0 += float32(qv * k0[d])
			a1 += float32(qv * k1[d])
			a2 += float32(qv * k2[d])
			a3 += float32(qv * k3[d])
			b0 += float32(qw * k0[d])
			b1 += float32(qw * k1[d])
			b2 += float32(qw * k2[d])
			b3 += float32(qw * k3[d])
			qv, qw = qa[d+1], qb[d+1]
			a0 += float32(qv * k0[d+1])
			a1 += float32(qv * k1[d+1])
			a2 += float32(qv * k2[d+1])
			a3 += float32(qv * k3[d+1])
			b0 += float32(qw * k0[d+1])
			b1 += float32(qw * k1[d+1])
			b2 += float32(qw * k2[d+1])
			b3 += float32(qw * k3[d+1])
		}
		for ; d < dh; d++ {
			qv, qw := qa[d], qb[d]
			a0 += float32(qv * k0[d])
			a1 += float32(qv * k1[d])
			a2 += float32(qv * k2[d])
			a3 += float32(qv * k3[d])
			b0 += float32(qw * k0[d])
			b1 += float32(qw * k1[d])
			b2 += float32(qw * k2[d])
			b3 += float32(qw * k3[d])
		}
		rowA[j], rowA[j+1], rowA[j+2], rowA[j+3] = a0*scale, a1*scale, a2*scale, a3*scale
		rowB[j], rowB[j+1], rowB[j+2], rowB[j+3] = b0*scale, b1*scale, b2*scale, b3*scale
	}
	for ; j < s; j++ {
		krow := kg[j*dh:][:dh]
		var da, db float32
		for d := 0; d < dh; d++ {
			da += float32(qa[d] * krow[d])
			db += float32(qb[d] * krow[d])
		}
		rowA[j] = da * scale
		rowB[j] = db * scale
	}

	invA := attnSoftmaxRow(rowA)
	invB := attnSoftmaxRow(rowB)

	for d := range oa {
		oa[d] = 0
		ob[d] = 0
	}
	j = 0
	for ; j+4 <= s; j += 4 {
		pa0 := rowA[j] * invA
		pa1 := rowA[j+1] * invA
		pa2 := rowA[j+2] * invA
		pa3 := rowA[j+3] * invA
		pb0 := rowB[j] * invB
		pb1 := rowB[j+1] * invB
		pb2 := rowB[j+2] * invB
		pb3 := rowB[j+3] * invB
		v0 := vg[j*dh:][:dh]
		v1 := vg[(j+1)*dh:][:dh]
		v2 := vg[(j+2)*dh:][:dh]
		v3 := vg[(j+3)*dh:][:dh]
		for d := 0; d < dh; d++ {
			o := oa[d]
			o += float32(pa0 * v0[d])
			o += float32(pa1 * v1[d])
			o += float32(pa2 * v2[d])
			o += float32(pa3 * v3[d])
			oa[d] = o
			o = ob[d]
			o += float32(pb0 * v0[d])
			o += float32(pb1 * v1[d])
			o += float32(pb2 * v2[d])
			o += float32(pb3 * v3[d])
			ob[d] = o
		}
	}
	for ; j < s; j++ {
		pa := rowA[j] * invA
		pb := rowB[j] * invB
		vrow := vg[j*dh:][:dh]
		for d := 0; d < dh; d++ {
			oa[d] += float32(pa * vrow[d])
			ob[d] += float32(pb * vrow[d])
		}
	}
}

// attnSoftmaxRow replays softmaxInto's arithmetic exactly on one score
// row in place (max seeded from element 0, exp and sum ascending) and
// returns the 1/sum reciprocal the caller folds into the P·V pass —
// ±Inf and NaN rows degenerate identically to the reference.
func attnSoftmaxRow(row []float32) float32 {
	m := row[0]
	for _, x := range row {
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
	return 1 / sum
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
