package tensor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sched"
)

// naiveAttentionRef is the unfused reference chain exactly as the
// graph executes it — Transpose, BatchMatMul, elementwise Mul by the
// scale constant, Softmax, BatchMatMul — materializing the rank-3
// Kᵀ, score, scaled-score and probability tensors (the (G,S,S)
// intermediates the fused kernel exists to avoid), with the batched
// matmul's per-slice result copies. Kept as the bit-equality baseline
// for the fused streaming kernel and as the measurement baseline in
// BENCH_kernels.json.
func naiveAttentionRef(t testing.TB, p *Pool, q, k, v *Tensor, scale float32) *Tensor {
	kt := New(k.shape[0], k.shape[2], k.shape[1])
	if err := TransposeInto(p, kt, k, []int{0, 2, 1}); err != nil {
		t.Fatal(err)
	}
	scores := naiveBatchMatMul(t, p, q, kt)
	scaled := New(scores.shape...)
	if err := PointwiseInto(p, scaled, ScalarFn{Op: Mul}, scores, Scalar(scale)); err != nil {
		t.Fatal(err)
	}
	w := Softmax(p, scaled)
	return naiveBatchMatMul(t, p, w, v)
}

// naiveBatchMatMul mirrors the BatchMatMul op's Forward: one MatMul
// per stacked slice, each result copied into the rank-3 output.
func naiveBatchMatMul(t testing.TB, p *Pool, a, b *Tensor) *Tensor {
	g, m, k := a.shape[0], a.shape[1], a.shape[2]
	n := b.shape[2]
	out := New(g, m, n)
	for i := 0; i < g; i++ {
		ai := FromSlice(a.data[i*m*k:(i+1)*m*k], m, k)
		bi := FromSlice(b.data[i*k*n:(i+1)*k*n], k, n)
		ci, err := MatMul(p, ai, bi, false, false)
		if err != nil {
			t.Fatal(err)
		}
		copy(out.data[i*m*n:(i+1)*m*n], ci.data)
	}
	return out
}

func attnPools(t testing.TB, widths []int) map[int]*Pool {
	ex := sched.New(8)
	t.Cleanup(ex.Close)
	pools := make(map[int]*Pool, len(widths))
	for _, w := range widths {
		if w == 1 {
			pools[w] = NewPool(1)
		} else {
			pools[w] = NewParallelPool(w, ex)
		}
	}
	return pools
}

// TestAttentionMatchesNaive pins the fused streaming-softmax kernel
// bit-identical to the unfused reference chain across shapes and
// intra-op widths — the kernel keeps every float operation in the
// reference order, so the max |Δ| must be exactly zero.
func TestAttentionMatchesNaive(t *testing.T) {
	pools := attnPools(t, []int{1, 2, 4, 8})
	shapes := []struct{ g, s, dh int }{
		{1, 1, 1},
		{1, 7, 3},
		{2, 33, 8},
		{8, 64, 16},
		{3, 130, 24}, // rows split across many chunks
	}
	rng := rand.New(rand.NewSource(5))
	for _, sh := range shapes {
		q := RandNormal(rng, 0, 1, sh.g, sh.s, sh.dh)
		k := RandNormal(rng, 0, 1, sh.g, sh.s, sh.dh)
		v := RandNormal(rng, 0, 1, sh.g, sh.s, sh.dh)
		scale := float32(1 / math.Sqrt(float64(sh.dh)))
		ref := naiveAttentionRef(t, NewPool(1), q, k, v, scale)
		for w, p := range pools {
			got, err := Attention(p, q, k, v, scale)
			if err != nil {
				t.Fatal(err)
			}
			if d := MaxAbsDiff(got, ref); d != 0 {
				t.Errorf("(%d,%d,%d) width %d: fused differs from naive (max |Δ| %g)", sh.g, sh.s, sh.dh, w, d)
			}
			refW := naiveAttentionRef(t, p, q, k, v, scale)
			if d := MaxAbsDiff(refW, ref); d != 0 {
				t.Errorf("(%d,%d,%d) width %d: naive chain not width-invariant (max |Δ| %g)", sh.g, sh.s, sh.dh, w, d)
			}
		}
	}
}

// TestAttentionStreamingSoftmaxStability is the softmax stability
// property test: rows with large-magnitude logits (up to ±1e4 before
// scaling, far past float32 exp range without the max-shift) and with
// ±Inf mask entries must agree bit-for-bit between the streaming
// kernel and the materialized reference at widths {1,2,8}. The -Inf
// masks follow the standard additive attention-mask idiom; a row
// masked everywhere degenerates to NaN in the reference and must do
// so identically in the fused kernel.
func TestAttentionStreamingSoftmaxStability(t *testing.T) {
	pools := attnPools(t, []int{1, 2, 8})
	const g, s, dh = 4, 48, 8
	rng := rand.New(rand.NewSource(17))
	q := RandNormal(rng, 0, 100, g, s, dh)
	k := RandNormal(rng, 0, 100, g, s, dh)
	v := RandNormal(rng, 0, 1, g, s, dh)

	// Group 1: huge-magnitude keys so scores reach ±1e4.
	for i := s * dh; i < 2*s*dh; i++ {
		k.data[i] *= 100
	}
	ninf := float32(math.Inf(-1))
	pinf := float32(math.Inf(1))
	// Group 2: causal-style -Inf mask via -Inf keys — every score in
	// the masked columns becomes ±Inf or NaN depending on q's sign,
	// exercising the degenerate exp paths.
	for j := s / 2; j < s; j++ {
		for d := 0; d < dh; d++ {
			k.data[2*s*dh+j*dh+d] = ninf
		}
	}
	// Group 3: one fully +Inf row of queries (max is +Inf, exp(Inf-Inf)
	// is NaN) and one all--Inf score row.
	for d := 0; d < dh; d++ {
		q.data[3*s*dh+d] = pinf
		k.data[3*s*dh+d] = ninf
	}

	ref := naiveAttentionRef(t, NewPool(1), q, k, v, 0.125)
	for w, p := range pools {
		got, err := Attention(p, q, k, v, 0.125)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.data {
			r, o := ref.data[i], got.data[i]
			if math.IsNaN(float64(r)) != math.IsNaN(float64(o)) || (!math.IsNaN(float64(r)) && r != o) {
				t.Fatalf("width %d: element %d differs: fused %v vs naive %v", w, i, o, r)
			}
		}
	}
}

// TestAttentionShapeErrors pins the kernel's operand validation.
func TestAttentionShapeErrors(t *testing.T) {
	p := NewPool(1)
	q := New(2, 4, 8)
	bad := New(2, 4, 7)
	rank2 := New(4, 8)
	if _, err := Attention(p, rank2, rank2, rank2, 1); err == nil {
		t.Error("rank-2 operands should be rejected")
	}
	if _, err := Attention(p, q, bad, New(2, 4, 8), 1); err == nil {
		t.Error("mismatched K shape should be rejected")
	}
	if err := AttentionInto(p, bad, q, New(2, 4, 8), New(2, 4, 8), 1); err == nil {
		t.Error("mismatched destination should be rejected")
	}
}

// benchAttnOperands builds the standard benchmark shape: 8 groups
// (e.g. batch 2 × 4 heads) at sequence length 256, head dim 64 — the
// seq-len ≥ 256 regime where the naive chain's (G,S,S) score traffic
// dominates.
func benchAttnOperands() (q, k, v *Tensor, scale float32) {
	rng := rand.New(rand.NewSource(23))
	const g, s, dh = 8, 256, 64
	return RandNormal(rng, 0, 1, g, s, dh),
		RandNormal(rng, 0, 1, g, s, dh),
		RandNormal(rng, 0, 1, g, s, dh),
		float32(1 / math.Sqrt(float64(dh)))
}

func BenchmarkAttentionFused(b *testing.B) {
	ex := sched.New(8)
	defer ex.Close()
	p := NewParallelPool(8, ex)
	q, k, v, scale := benchAttnOperands()
	out := New(q.shape...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := AttentionInto(p, out, q, k, v, scale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttentionNaive(b *testing.B) {
	ex := sched.New(8)
	defer ex.Close()
	p := NewParallelPool(8, ex)
	q, k, v, scale := benchAttnOperands()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveAttentionRef(b, p, q, k, v, scale)
	}
}

// FuzzAttention drives the fused kernel over small (G, S, Dh) — S past
// blockM, so a group splits into a full and a partial row block — an
// arbitrary scale, and poison bytes that place ±Inf, NaN and -0 in Q
// and K (byte pairs: position, then kind). The bits at widths 1 and 2
// must be naiveAttentionRef's, NaNs of any payload counted equal.
func FuzzAttention(f *testing.F) {
	f.Add(uint8(32), uint8(12), uint8(8), float32(0.35), []byte{}, int64(1))
	f.Add(uint8(3), uint8(70), uint8(5), float32(0.5), []byte{0, 1, 9, 2}, int64(2))
	f.Add(uint8(1), uint8(1), uint8(1), float32(-1), []byte{0, 0}, int64(3))
	f.Add(uint8(2), uint8(65), uint8(17), float32(1e4), []byte{3, 4, 200, 5, 77, 6, 41, 7}, int64(4))
	ex := sched.New(1)
	f.Cleanup(ex.Close)
	pools := map[int]*Pool{1: NewPool(1), 2: NewParallelPool(2, ex)}
	poison := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), float32(math.Copysign(0, -1))}
	f.Fuzz(func(t *testing.T, gB, sB, dhB uint8, scale float32, poisons []byte, seed int64) {
		g, s, dh := 1+int(gB%4), 1+int(sB%80), 1+int(dhB%20)
		rng := rand.New(rand.NewSource(seed))
		q := RandNormal(rng, 0, 1, g, s, dh)
		k := RandNormal(rng, 0, 1, g, s, dh)
		v := RandNormal(rng, 0, 1, g, s, dh)
		for i := 0; i+1 < len(poisons); i += 2 {
			dst := q.data
			if poisons[i+1]&4 != 0 {
				dst = k.data
			}
			dst[int(poisons[i])*len(dst)/256] = poison[poisons[i+1]&3]
		}
		want := naiveAttentionRef(t, NewPool(1), q, k, v, scale)
		for w, p := range pools {
			got := Full(float32(math.NaN()), g, s, dh)
			if err := AttentionInto(p, got, q, k, v, scale); err != nil {
				t.Fatal(err)
			}
			if i, ok := sameBits(got.data, want.data); !ok {
				t.Fatalf("(%d,%d,%d) scale %v width %d: element %d is %v, the naive chain gives %v", g, s, dh, scale, w, i, got.data[i], want.data[i])
			}
		}
	})
}

// TestAttentionAllocatesNothing: at width 1 the region runs inline
// (Pool.inline) and every product runs on lane 0's scratch, so once
// that scratch has grown a call allocates nothing.
func TestAttentionAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := NewPool(1)
	q, k, v := RandNormal(rng, 0, 1, 32, 12, 8), RandNormal(rng, 0, 1, 32, 12, 8), RandNormal(rng, 0, 1, 32, 12, 8)
	out := New(32, 12, 8)
	allocs := testing.AllocsPerRun(10, func() {
		if err := AttentionInto(p, out, q, k, v, 0.35); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AttentionInto allocates %v objects per call at width 1 on (32,12,8), want 0", allocs)
	}
}
