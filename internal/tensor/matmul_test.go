package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sched"
)

// naiveMatMul is an obviously-correct reference implementation.
// naiveMatMul is the definition every kernel must reproduce bit for bit
// on finite data: per element, one rounded multiply and one rounded add
// per k, k ascending from zero.
func naiveMatMul(a, b *Tensor, transA, transB bool) *Tensor {
	get := func(t *Tensor, i, j int, tr bool) float32 {
		if tr {
			return t.At(j, i)
		}
		return t.At(i, j)
	}
	m, k := a.Dim(0), a.Dim(1)
	if transA {
		m, k = k, m
	}
	n := b.Dim(1)
	if transB {
		n = b.Dim(0)
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for l := 0; l < k; l++ {
				s += float32(get(a, i, l, transA) * get(b, l, j, transB))
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func TestMatMulKnown(t *testing.T) {
	p := NewPool(1)
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	out, err := MatMul(p, a, b, false, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{58, 64, 139, 154}
	for i := range want {
		if out.Data()[i] != want[i] {
			t.Fatalf("MatMul = %v want %v", out.Data(), want)
		}
	}
}

func TestMatMulAllTransposeCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewPool(1)
	m, k, n := 5, 7, 3
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			ashape := []int{m, k}
			if ta {
				ashape = []int{k, m}
			}
			bshape := []int{k, n}
			if tb {
				bshape = []int{n, k}
			}
			a := RandNormal(rng, 0, 1, ashape...)
			b := RandNormal(rng, 0, 1, bshape...)
			got, err := MatMul(p, a, b, ta, tb)
			if err != nil {
				t.Fatal(err)
			}
			want := naiveMatMul(a, b, ta, tb)
			if !AllClose(got, want, 1e-4, 1e-4) {
				t.Fatalf("transA=%v transB=%v mismatch (max diff %g)", ta, tb, MaxAbsDiff(got, want))
			}
		}
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandNormal(rng, 0, 1, 64, 32)
	b := RandNormal(rng, 0, 1, 32, 48)
	s, _ := MatMul(NewPool(1), a, b, false, false)
	q, _ := MatMul(NewPool(8), a, b, false, false)
	if !AllClose(s, q, 1e-6, 1e-6) {
		t.Fatal("parallel matmul differs from serial")
	}
}

func TestMatMulShapeErrors(t *testing.T) {
	p := NewPool(1)
	if _, err := MatMul(p, New(2, 3), New(4, 5), false, false); err == nil {
		t.Fatal("expected inner-dimension error")
	}
	if _, err := MatMul(p, New(2), New(2, 2), false, false); err == nil {
		t.Fatal("expected rank error")
	}
}

// TestMatMulBlockedMatchesStreaming drives the GEMM at sizes with odd
// dimensions, so partial panels in every blocking loop are exercised,
// and holds it to the definition bit for bit in all four transpose
// cases.
func TestMatMulBlockedMatchesStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewPool(1)
	m, k, n := 131, 157, 101 // nothing divides a block
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			ashape := []int{m, k}
			if ta {
				ashape = []int{k, m}
			}
			bshape := []int{k, n}
			if tb {
				bshape = []int{n, k}
			}
			a := RandNormal(rng, 0, 1, ashape...)
			b := RandNormal(rng, 0, 1, bshape...)
			got := Full(99, m, n)
			matmulInto(p, got.data, a.data, b.data, m, n, k, a.shape[1], b.shape[1], ta, tb, false)
			if i, ok := sameBits(got.data, naiveMatMul(a, b, ta, tb).data); !ok {
				t.Fatalf("transA=%v transB=%v: element %d differs from the definition", ta, tb, i)
			}
		}
	}
}

// TestMatMulAccumulateSplitsReduction: a product computed as two acc
// slabs of its reduction dimension has the bits of the unsplit product,
// in every transpose case, from a padded strip to several tiles and
// slabs (the contract Conv2DBackFilterInto's row blocks rest on).
func TestMatMulAccumulateSplitsReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := NewPool(2)
	for _, sh := range []struct{ m, k, n int }{{3, 50, 40}, {7, 9, 11}, {37, 301, 29}} {
		for c := 0; c < 4; c++ {
			ta, tb := c&1 != 0, c&2 != 0
			m, k, n, k1 := sh.m, sh.k, sh.n, sh.k/3
			ashape, bshape := []int{m, k}, []int{k, n}
			if ta {
				ashape = []int{k, m}
			}
			if tb {
				bshape = []int{n, k}
			}
			a, b := RandNormal(rng, 0, 1, ashape...), RandNormal(rng, 0, 1, bshape...)
			lda, ldb := a.shape[1], b.shape[1]
			want, got := Full(99, m, n), Full(-7, m, n)
			matmulInto(p, want.data, a.data, b.data, m, n, k, lda, ldb, ta, tb, false)
			// The second slab starts k1 along the reduction dimension of
			// each stored operand.
			aoff, boff := k1, k1*ldb
			if ta {
				aoff = k1 * lda
			}
			if tb {
				boff = k1
			}
			a2, b2 := a.data[aoff:], b.data[boff:]
			matmulInto(p, got.data, a.data, b.data, m, n, k1, lda, ldb, ta, tb, false)
			matmulInto(p, got.data, a2, b2, m, n, k-k1, lda, ldb, ta, tb, true)
			if i, ok := sameBits(got.data, want.data); !ok {
				t.Fatalf("(%d,%d,%d) ta=%v tb=%v: split product differs at element %d", m, k, n, ta, tb, i)
			}
		}
	}
}

func TestMatMulIntoOverwritesDirtyDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewPool(1)
	a := RandNormal(rng, 0, 1, 6, 8)
	b := RandNormal(rng, 0, 1, 8, 5)
	want, err := MatMul(p, a, b, false, false)
	if err != nil {
		t.Fatal(err)
	}
	dst := Full(99, 6, 5) // dirty, as arena buffers are
	if err := MatMulInto(p, dst, a, b, false, false); err != nil {
		t.Fatal(err)
	}
	if !AllClose(dst, want, 0, 0) {
		t.Fatal("MatMulInto must fully overwrite the destination")
	}
}

func TestMatMulIntoShapeErrors(t *testing.T) {
	p := NewPool(1)
	if err := MatMulInto(p, New(2, 2), New(2, 3), New(3, 4), false, false); err == nil {
		t.Fatal("expected destination shape error")
	}
	if err := MatMulInto(p, New(2, 2), New(2, 3), New(4, 4), false, false); err == nil {
		t.Fatal("expected inner-dimension error")
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random sizes.
func TestMatMulTransposeIdentityQuick(t *testing.T) {
	p := NewPool(2)
	rng := rand.New(rand.NewSource(3))
	f := func(m0, k0, n0 uint8) bool {
		m, k, n := int(m0%6)+1, int(k0%6)+1, int(n0%6)+1
		a := RandNormal(rng, 0, 1, m, k)
		b := RandNormal(rng, 0, 1, k, n)
		ab, err := MatMul(p, a, b, false, false)
		if err != nil {
			return false
		}
		abT := New(n, m)
		if TransposeInto(p, abT, ab, []int{1, 0}) != nil {
			return false
		}
		// Bᵀ·Aᵀ computed with transpose flags on the stored tensors.
		bTaT, err := MatMul(p, b, a, true, true)
		if err != nil {
			return false
		}
		return AllClose(abT, bTaT, 1e-4, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMatMulParallelBitIdentical drives the GEMM — thin and tiny
// products of one tile, and products of several — at several
// real-parallel widths and demands bitwise equality with the serial
// pool: chunk boundaries are width-independent and per-element
// accumulation order never changes, so the parallel strategy must be
// invisible in the result bits.
func TestMatMulParallelBitIdentical(t *testing.T) {
	ex := sched.New(4)
	defer ex.Close()
	rng := rand.New(rand.NewSource(3))
	cases := []struct{ m, k, n int }{
		{3, 40, 290},   // one padded strip, three column panels
		{9, 20, 17},    // one tile, a few hundred multiply-adds
		{33, 40, 29},   // one partial tile
		{160, 144, 80}, // several row blocks
		{256, 128, 64}, // uneven tiles
	}
	for _, tc := range cases {
		a := RandNormal(rng, 0, 1, tc.m, tc.k)
		b := RandNormal(rng, 0, 1, tc.k, tc.n)
		want, err := MatMul(NewPool(1), a, b, false, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4} {
			p := NewParallelPool(w, ex)
			for _, tr := range []struct{ ta, tb bool }{{false, false}} {
				got, err := MatMul(p, a, b, tr.ta, tr.tb)
				if err != nil {
					t.Fatal(err)
				}
				if d := MaxAbsDiff(got, want); d != 0 {
					t.Fatalf("(%d,%d,%d) width %d: parallel matmul differs (max |Δ| %g)", tc.m, tc.k, tc.n, w, d)
				}
			}
		}
		// Transposed operands too.
		at := RandNormal(rng, 0, 1, tc.k, tc.m)
		wantT, err := MatMul(NewPool(1), at, b, true, false)
		if err != nil {
			t.Fatal(err)
		}
		gotT, err := MatMul(NewParallelPool(4, ex), at, b, true, false)
		if err != nil {
			t.Fatal(err)
		}
		if d := MaxAbsDiff(gotT, wantT); d != 0 {
			t.Fatalf("(%d,%d,%d) transA width 4: differs (max |Δ| %g)", tc.m, tc.k, tc.n, d)
		}
	}
}

// TestConv2DParallelBitIdentical covers the forward convolution under
// the real parallel strategy (TestConvLoweringMatchesDirectLoops covers
// all three passes at widths 1 and 4).
func TestConv2DParallelBitIdentical(t *testing.T) {
	ex := sched.New(4)
	defer ex.Close()
	rng := rand.New(rand.NewSource(5))
	in := RandNormal(rng, 0, 1, 2, 12, 12, 8)
	filt := RandNormal(rng, 0, 1, 3, 3, 8, 16)
	spec := ConvSpec{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	want, err := Conv2D(NewPool(1), in, filt, spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Conv2D(NewParallelPool(4, ex), in, filt, spec)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("parallel conv differs (max |Δ| %g)", d)
	}
	// Strided.
	spec2 := ConvSpec{StrideH: 2, StrideW: 2}
	want2, _ := Conv2D(NewPool(1), in, filt, spec2)
	got2, _ := Conv2D(NewParallelPool(4, ex), in, filt, spec2)
	if d := MaxAbsDiff(got2, want2); d != 0 {
		t.Fatalf("parallel strided conv differs (max |Δ| %g)", d)
	}
}

// TestMatMulAllocatesNothing: on a width-1 pool the GEMM runs its tile
// loop on the caller (Pool.inline) and keeps its panels in pool
// scratch, so once that scratch has grown a product allocates nothing,
// whatever its shape or transpose case.
func TestMatMulAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := NewPool(1)
	for _, c := range []struct {
		name           string
		m, k, n        int
		transA, transB bool
	}{
		{"12x8x12 nn", 12, 8, 12, false, false},
		{"2x512x512 nt", 2, 512, 512, false, true},
		{"131x157x101 tn", 131, 157, 101, true, false},
	} {
		ashape, bshape := []int{c.m, c.k}, []int{c.k, c.n}
		if c.transA {
			ashape = []int{c.k, c.m}
		}
		if c.transB {
			bshape = []int{c.n, c.k}
		}
		a, b, out := RandNormal(rng, 0, 1, ashape...), RandNormal(rng, 0, 1, bshape...), New(c.m, c.n)
		allocs := testing.AllocsPerRun(10, func() {
			if err := MatMulInto(p, out, a, b, c.transA, c.transB); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: MatMulInto allocates %v objects per call at width 1, want 0", c.name, allocs)
		}
	}
}

// FuzzMatMul drives the GEMM over m, n and k in 0–70, all four
// transpose cases, acc, and operands stored with row strides past their
// width (the gap holds NaN, so reading it shows). It must not panic,
// and the bits must be the naive definition's — into a NaN-filled
// destination, or with acc onto zeros — on a width-1, a recorded width-4
// and a parallel width-4 pool alike; the product split over k into a
// plain call and an acc call must give the same bits.
func FuzzMatMul(f *testing.F) {
	f.Add(uint8(12), uint8(12), uint8(8), uint8(0), false, uint8(0), uint8(0), uint8(3), int64(1))
	f.Add(uint8(2), uint8(70), uint8(70), uint8(2), true, uint8(1), uint8(3), uint8(35), int64(2))
	f.Add(uint8(0), uint8(5), uint8(7), uint8(1), false, uint8(2), uint8(0), uint8(0), int64(3))
	f.Add(uint8(3), uint8(9), uint8(0), uint8(3), true, uint8(0), uint8(1), uint8(0), int64(4))
	f.Add(uint8(70), uint8(69), uint8(67), uint8(3), false, uint8(3), uint8(2), uint8(66), int64(5))
	ex := sched.New(3)
	f.Cleanup(ex.Close)
	pools := []*Pool{NewPool(1), NewPool(4), NewParallelPool(4, ex)}
	nan := float32(math.NaN())
	f.Fuzz(func(t *testing.T, mB, nB, kB, trans uint8, acc bool, padA, padB, split uint8, seed int64) {
		m, n, k := int(mB%71), int(nB%71), int(kB%71)
		ta, tb := trans&1 != 0, trans&2 != 0
		rng := rand.New(rand.NewSource(seed))
		// stored fills a rows×cols operand at row stride ld and returns
		// the strided buffer and a contiguous copy for the definition.
		stored := func(rows, cols, ld int) ([]float32, *Tensor) {
			buf, dense := make([]float32, rows*ld), New(rows, cols)
			for r := 0; r < rows; r++ {
				for c := 0; c < ld; c++ {
					v := nan
					if c < cols {
						v = float32(rng.NormFloat64())
						dense.data[r*cols+c] = v
					}
					buf[r*ld+c] = v
				}
			}
			return buf, dense
		}
		ar, ac := m, k
		if ta {
			ar, ac = k, m
		}
		br, bc := k, n
		if tb {
			br, bc = n, k
		}
		lda, ldb := ac+int(padA%4), bc+int(padB%4)
		a, aT := stored(ar, ac, lda)
		b, bT := stored(br, bc, ldb)
		want := naiveMatMul(aT, bT, ta, tb).data
		for i, p := range pools {
			got := Full(nan, m, n).data
			if acc {
				got = New(m, n).data
			}
			matmulInto(p, got, a, b, m, n, k, lda, ldb, ta, tb, acc)
			if j, ok := sameBits(got, want); !ok {
				t.Fatalf("(%d,%d,%d) ta=%v tb=%v acc=%v pool %d: element %d is %v, the definition gives %v", m, k, n, ta, tb, acc, i, j, got[j], want[j])
			}
			if m == 0 || n == 0 {
				continue // nothing to split, and no stored row to offset into
			}
			k1 := int(split) % (k + 1)
			aoff, boff := k1, k1*ldb
			if ta {
				aoff = k1 * lda
			}
			if tb {
				boff = k1
			}
			got = Full(nan, m, n).data
			matmulInto(p, got, a, b, m, n, k1, lda, ldb, ta, tb, false)
			matmulInto(p, got, a[aoff:], b[boff:], m, n, k-k1, lda, ldb, ta, tb, true)
			if j, ok := sameBits(got, want); !ok {
				t.Fatalf("(%d,%d,%d) ta=%v tb=%v pool %d, split at %d: element %d is %v, the definition gives %v", m, k, n, ta, tb, i, k1, j, got[j], want[j])
			}
		}
	})
}
