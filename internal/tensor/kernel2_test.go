package tensor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sched"
)

// Kernel tier 2 coverage: the 2-D tiled GEMM, its SIMD tile and its
// short products, the parallel max / large-outer reductions, and the
// no-alias contract guard. The alias guard runs for the whole
// package test binary — every kernel invocation in every tensor test
// is checked.

func init() { AliasChecks = true }

// TestMatMulPropertyRandomShapes is the tier-2 GEMM property test:
// random shapes from a padded strip to several tiles, all four
// transpose combinations, checked against the naive reference and
// required bit-identical across pool widths 1, 2 and 8 (recorded and
// real-parallel). Per-output-element accumulation order is a pure
// function of shape, so width must be invisible in the bits.
func TestMatMulPropertyRandomShapes(t *testing.T) {
	ex := sched.New(8)
	defer ex.Close()
	rng := rand.New(rand.NewSource(11))
	dim := func(limit int) int { return 1 + rng.Intn(limit) }
	for trial := 0; trial < 24; trial++ {
		var m, k, n int
		switch trial % 3 {
		case 0:
			// Too few rows for a micro-kernel strip: one padded strip.
			m, k, n = dim(3), dim(48), dim(200)
		case 1:
			m, k, n = dim(48), dim(48), dim(48)
		default:
			// Several tiles, several lanes.
			m, k, n = 96+dim(96), 96+dim(96), 96+dim(96)
		}
		ta, tb := rng.Intn(2) == 1, rng.Intn(2) == 1
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
		want, err := MatMul(NewPool(1), a, b, ta, tb)
		if err != nil {
			t.Fatal(err)
		}
		naive := naiveMatMul(a, b, ta, tb)
		if !AllClose(want, naive, 1e-3, 1e-3) {
			t.Fatalf("(%d,%d,%d) ta=%v tb=%v: diverges from naive reference (max diff %g)",
				m, k, n, ta, tb, MaxAbsDiff(want, naive))
		}
		for _, w := range []int{2, 8} {
			got, err := MatMul(NewPool(w), a, b, ta, tb)
			if err != nil {
				t.Fatal(err)
			}
			if d := MaxAbsDiff(got, want); d != 0 {
				t.Fatalf("(%d,%d,%d) ta=%v tb=%v recorded width %d: not bit-identical (max |Δ| %g)",
					m, k, n, ta, tb, w, d)
			}
			got, err = MatMul(NewParallelPool(w, ex), a, b, ta, tb)
			if err != nil {
				t.Fatal(err)
			}
			if d := MaxAbsDiff(got, want); d != 0 {
				t.Fatalf("(%d,%d,%d) ta=%v tb=%v parallel width %d: not bit-identical (max |Δ| %g)",
					m, k, n, ta, tb, w, d)
			}
		}
	}
}

// matmulBlockedGo is the blocked GEMM on the Go micro-tile alone,
// serial: the oracle for the assembly tile. It computes into a copy of C
// padded to whole four-row strips (packPanelA pads A to match), so
// microStrip4 is the only kernel it runs.
func matmulBlockedGo(dst, a, b []float32, m, n, k, lda, ldb int, ta, tb bool) {
	pad := make([]float32, (m+3)/4*4*n)
	packA, packB := make([]float32, blockM*blockK), make([]float32, blockK*blockN)
	for jc := 0; jc < n; jc += blockN {
		nc := min(blockN, n-jc)
		for pc := 0; pc < k; pc += blockK {
			kc := min(blockK, k-pc)
			packPanelB(packB, b, pc, kc, jc, nc, ldb, tb)
			for ic := 0; ic < m; ic += blockM {
				mc := min(blockM, m-ic)
				packPanelA(packA, a, ic, mc, pc, kc, lda, ta)
				for i := 0; i < mc; i += 4 {
					microStrip4(pad, packA, packB, (ic+i)*n+jc, i, 0, nc, kc, n, pc == 0)
				}
			}
		}
	}
	copy(dst, pad[:m*n])
}

// sameBits reports the first element where got and want differ in their
// bits, NaNs of any payload counting as equal (which operand's payload
// survives an x86 add depends on operand order, not on the value).
func sameBits(got, want []float32) (int, bool) {
	for i, v := range got {
		w := want[i]
		if math.Float32bits(v) != math.Float32bits(w) && !(v != v && w != w) {
			return i, false
		}
	}
	return 0, true
}

// TestSIMDTileMatchesGoTile is the micro-kernel property test: the
// dispatching kernel (assembly tiles where the build has them, Go
// fringes around them) against the Go tile alone and against the naive
// definition, bit for bit, over random shapes with partial strips,
// partial 16- and 8-column tiles and several reduction slabs, all four
// transpose cases, operand rows holding NaN, ±Inf and −0, and intra-op
// widths 1, 2 and 4. On a build without the assembly it checks the Go
// tile against the definition.
func TestSIMDTileMatchesGoTile(t *testing.T) {
	ex := sched.New(3)
	defer ex.Close()
	pools := map[int]*Pool{1: NewPool(1), 2: NewParallelPool(2, ex), 4: NewParallelPool(4, ex)}
	rng := rand.New(rand.NewSource(23))
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1))}
	for trial := 0; trial < 48; trial++ {
		m, k, n := 1+rng.Intn(90), 1+rng.Intn(90), 1+rng.Intn(150)
		switch trial % 4 {
		case 1:
			k = blockK + 1 + rng.Intn(300)
		case 2:
			m, n = 4*(1+rng.Intn(20)), 16*(1+rng.Intn(9))
		case 3:
			m = blockM + rng.Intn(100)
		}
		ta, tb := trial&4 != 0, trial&8 != 0
		ashape, bshape := []int{m, k}, []int{k, n}
		if ta {
			ashape = []int{k, m}
		}
		if tb {
			bshape = []int{n, k}
		}
		a, b := RandNormal(rng, 0, 1, ashape...), RandNormal(rng, 0, 1, bshape...)
		poisoned := trial%3 == 2
		if poisoned {
			for _, x := range [][]float32{a.data, b.data} {
				for c := 0; c < 6; c++ {
					x[rng.Intn(len(x))] = specials[rng.Intn(len(specials))]
				}
			}
		}
		want := New(m, n)
		matmulBlockedGo(want.data, a.data, b.data, m, n, k, a.shape[1], b.shape[1], ta, tb)
		if !poisoned {
			if i, ok := sameBits(want.data, naiveMatMul(a, b, ta, tb).data); !ok {
				t.Fatalf("(%d,%d,%d) ta=%v tb=%v: Go tile differs from the naive definition at element %d", m, k, n, ta, tb, i)
			}
		}
		for w, p := range pools {
			got := Full(99, m, n)
			matmulInto(p, got.data, a.data, b.data, m, n, k, a.shape[1], b.shape[1], ta, tb, false)
			if i, ok := sameBits(got.data, want.data); !ok {
				t.Fatalf("(%d,%d,%d) ta=%v tb=%v width %d: element %d is %g (%#x), the Go tile gives %g (%#x)", m, k, n, ta, tb, w, i,
					got.data[i], math.Float32bits(got.data[i]), want.data[i], math.Float32bits(want.data[i]))
			}
		}
	}
}

// TestSmallRowGEMMMatchesNaive covers the products of one to three
// rows, which the GEMM runs as one strip padded with zero rows of packed
// A: each must give the naive definition's bits, for all four transpose
// cases, every n mod 4 tail, one and several column panels and
// reduction slabs, at widths 1 and 4 — and so must the same product
// split in two over the reduction with acc, the second half continuing
// each element's chain from what the first stored. It also covers the
// empty products: m = 0 writes nothing, and k = 0 writes zeros, or with
// acc leaves the destination as it was.
func TestSmallRowGEMMMatchesNaive(t *testing.T) {
	ex := sched.New(3)
	defer ex.Close()
	pools := map[int]*Pool{1: NewPool(1), 4: NewParallelPool(4, ex)}
	rng := rand.New(rand.NewSource(29))
	for m := 1; m <= 3; m++ {
		for _, k := range []int{7, 64, 300} {
			for _, n := range []int{1, 16, 17, 18, 19, 64, 131, 1030} {
				for tr := 0; tr < 4; tr++ {
					ta, tb := tr&1 != 0, tr&2 != 0
					ashape, bshape := []int{m, k}, []int{k, n}
					if ta {
						ashape = []int{k, m}
					}
					if tb {
						bshape = []int{n, k}
					}
					a, b := RandNormal(rng, 0, 1, ashape...), RandNormal(rng, 0, 1, bshape...)
					lda, ldb := a.shape[1], b.shape[1]
					want := naiveMatMul(a, b, ta, tb).data
					// Offsets of reduction index k1 in the stored operands.
					k1 := 1 + k/3
					aoff, boff := k1, k1*ldb
					if ta {
						aoff = k1 * lda
					}
					if tb {
						boff = k1
					}
					for w, p := range pools {
						got := Full(99, m, n).data
						matmulInto(p, got, a.data, b.data, m, n, k, lda, ldb, ta, tb, false)
						if i, ok := sameBits(got, want); !ok {
							t.Fatalf("(%d,%d,%d) ta=%v tb=%v width %d: element %d is %g, the definition gives %g", m, k, n, ta, tb, w, i, got[i], want[i])
						}
						got = Full(99, m, n).data
						matmulInto(p, got, a.data, b.data, m, n, k1, lda, ldb, ta, tb, false)
						matmulInto(p, got, a.data[aoff:], b.data[boff:], m, n, k-k1, lda, ldb, ta, tb, true)
						if i, ok := sameBits(got, want); !ok {
							t.Fatalf("(%d,%d,%d) ta=%v tb=%v width %d, split at %d with acc: element %d is %g, the definition gives %g", m, k, n, ta, tb, w, k1, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
	for _, sh := range []struct{ m, k, n int }{{0, 7, 17}, {3, 0, 17}} {
		for tr := 0; tr < 4; tr++ {
			ta, tb := tr&1 != 0, tr&2 != 0
			lda, ldb := sh.k, sh.n
			if ta {
				lda = sh.m
			}
			if tb {
				ldb = sh.k
			}
			a, b := make([]float32, sh.m*sh.k), make([]float32, sh.k*sh.n)
			for w, p := range pools {
				for _, acc := range []bool{false, true} {
					got := Full(99, sh.m, sh.n).data
					matmulInto(p, got, a, b, sh.m, sh.n, sh.k, lda, ldb, ta, tb, acc)
					want := float32(0)
					if acc {
						want = 99
					}
					for i, v := range got {
						if v != want {
							t.Fatalf("(%d,%d,%d) ta=%v tb=%v width %d acc=%v: element %d is %g, want %g", sh.m, sh.k, sh.n, ta, tb, w, acc, i, v, want)
						}
					}
				}
			}
		}
	}
}

// TestMatMulWideStreamingSplitsColumns drives the short-and-wide
// shape (single-row inference GEMMs): its one row block splits over
// column panels instead, so it parallelizes, and it must match the
// naive reference and stay bit-identical across widths.
func TestMatMulWideStreamingSplitsColumns(t *testing.T) {
	ex := sched.New(4)
	defer ex.Close()
	rng := rand.New(rand.NewSource(13))
	for _, shape := range []struct{ m, k, n int }{
		{1, 64, 4096}, {2, 32, 2048}, {3, 100, 1000},
	} {
		a := RandNormal(rng, 0, 1, shape.m, shape.k)
		b := RandNormal(rng, 0, 1, shape.k, shape.n)
		want, err := MatMul(NewPool(1), a, b, false, false)
		if err != nil {
			t.Fatal(err)
		}
		naive := naiveMatMul(a, b, false, false)
		if !AllClose(want, naive, 1e-3, 1e-3) {
			t.Fatalf("(%d,%d,%d): short-and-wide product diverges from naive (max diff %g)",
				shape.m, shape.k, shape.n, MaxAbsDiff(want, naive))
		}
		got, err := MatMul(NewParallelPool(4, ex), a, b, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if d := MaxAbsDiff(got, want); d != 0 {
			t.Fatalf("(%d,%d,%d): short-and-wide product differs in parallel (max |Δ| %g)",
				shape.m, shape.k, shape.n, d)
		}
	}
}

// TestAxisReduceMaxSmallOuterWidthInvariant: a max reduction whose
// outermost block is reduced folds chunk partials, is bit-identical at
// every width, and agrees exactly with a per-fiber fold (the first of
// equal maxima wins in both, so exact equality is the right bar).
func TestAxisReduceMaxSmallOuterWidthInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	in := RandUniform(rng, -1, 1, 6, 28, 28, 5)
	want, err := Reduce(NewPool(1), in, []int{0, 1, 2}, false, "max")
	if err != nil {
		t.Fatal(err)
	}
	// Naive per-fiber reference.
	for c := 0; c < 5; c++ {
		ref := in.At(0, 0, 0, c)
		for i := 0; i < 6; i++ {
			for h := 0; h < 28; h++ {
				for w := 0; w < 28; w++ {
					if v := in.At(i, h, w, c); v > ref {
						ref = v
					}
				}
			}
		}
		if want.Data()[c] != ref {
			t.Fatalf("small-outer max wrong at channel %d", c)
		}
	}
	for _, workers := range []int{2, 8} {
		got, err := Reduce(NewPool(workers), in, []int{0, 1, 2}, false, "max")
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := firstDiff(want.Data(), got.Data()); !ok {
			t.Fatalf("max recorded width %d differs from width 1 at %d", workers, i)
		}
		par, err := Reduce(NewParallelPool(workers, newExecN(workers-1)), in, []int{0, 1, 2}, false, "max")
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := firstDiff(want.Data(), par.Data()); !ok {
			t.Fatalf("max parallel width %d differs from width 1 at %d", workers, i)
		}
	}
}

// TestAxisReduceLargeOuterWidthInvariant: reductions with many outputs,
// whether their outermost block is reduced (chunk partials) or kept
// (chunks own their outputs), are bit-identical at every width for all
// kinds.
func TestAxisReduceLargeOuterWidthInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, shape := range []struct {
		dims []int
		axes []int
	}{
		{[]int{8, 4096}, []int{0}},    // leading reduce, strided fibers
		{[]int{4096, 8}, []int{1}},    // trailing reduce, contiguous fibers
		{[]int{16, 40, 65}, []int{1}}, // middle reduce, 1040 outputs
	} {
		in := RandUniform(rng, -1, 1, shape.dims...)
		for _, kind := range []string{"sum", "mean", "max"} {
			want, err := Reduce(NewPool(1), in, shape.axes, false, kind)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				got, err := Reduce(NewPool(workers), in, shape.axes, false, kind)
				if err != nil {
					t.Fatal(err)
				}
				if i, ok := firstDiff(want.Data(), got.Data()); !ok {
					t.Fatalf("%v %s recorded width %d differs at %d", shape.dims, kind, workers, i)
				}
				par, err := Reduce(NewParallelPool(workers, newExecN(workers-1)), in, shape.axes, false, kind)
				if err != nil {
					t.Fatal(err)
				}
				if i, ok := firstDiff(want.Data(), par.Data()); !ok {
					t.Fatalf("%v %s parallel width %d differs at %d", shape.dims, kind, workers, i)
				}
			}
		}
	}
}

// TestAliasGuardCatchesOverlap pins the debug no-alias guard: the Into
// kernels must panic (under AliasChecks) when the destination aliases
// an input — the contract violation that silently corrupts results in
// release mode.
func TestAliasGuardCatchesOverlap(t *testing.T) {
	p := NewPool(1)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: aliased destination did not panic under AliasChecks", name)
			}
		}()
		f()
	}
	a := Full(1, 4, 4)
	mustPanic("MatMulInto", func() { _ = MatMulInto(p, a, a, Full(1, 4, 4), false, false) })
	// A length-1 reduced axis with keepDims keeps the shape valid, so
	// the call reaches the kernel and the guard must fire.
	rin := Full(2, 1, 4)
	mustPanic("ReduceInto", func() { _ = ReduceInto(p, rin, rin, []int{0}, true, "sum") })
	in := Full(2, 4, 4)
	mustPanic("SoftmaxInto", func() { _ = SoftmaxInto(p, in, in) })

	// Disjoint tensors sharing no storage must pass untouched.
	out := New(4, 4)
	if err := SoftmaxInto(p, out, in); err != nil {
		t.Fatal(err)
	}
}
