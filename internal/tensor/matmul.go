package tensor

import "fmt"

// MatMul computes C = op(A) · op(B) for 2-D tensors, where op is an
// optional transpose. The destination is freshly allocated. The kernel
// parallelizes over output rows through the pool.
func MatMul(p *Pool, a, b *Tensor, transA, transB bool) (*Tensor, error) {
	m, n, _, err := matmulDims(a, b, transA, transB)
	if err != nil {
		return nil, err
	}
	out := New(m, n)
	matmulInto(p, out.data, a.data, b.data, m, n, matmulK(a, transA), a.shape[1], b.shape[1], transA, transB, false)
	return out, nil
}

// MatMulInto computes op(A)·op(B) into out, which must have the result
// shape (m, n). out may hold arbitrary data; it is fully overwritten
// and never read before being written, so it must not alias a or b.
func MatMulInto(p *Pool, out, a, b *Tensor, transA, transB bool) error {
	m, n, k, err := matmulDims(a, b, transA, transB)
	if err != nil {
		return err
	}
	if out.Rank() != 2 || out.shape[0] != m || out.shape[1] != n {
		return fmt.Errorf("tensor: MatMulInto destination %v, want [%d %d]", out.shape, m, n)
	}
	checkNoAlias("MatMulInto", out, a, b)
	matmulInto(p, out.data, a.data, b.data, m, n, k, a.shape[1], b.shape[1], transA, transB, false)
	return nil
}

func matmulDims(a, b *Tensor, transA, transB bool) (m, n, k int, err error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return 0, 0, 0, fmt.Errorf("tensor: MatMul requires rank-2 inputs, got %v and %v", a.shape, b.shape)
	}
	m, ka := a.shape[0], a.shape[1]
	if transA {
		m, ka = ka, m
	}
	kb, n := b.shape[0], b.shape[1]
	if transB {
		kb, n = n, kb
	}
	if ka != kb {
		return 0, 0, 0, fmt.Errorf("tensor: MatMul inner dimensions disagree: %v (transA=%v) × %v (transB=%v)", a.shape, transA, b.shape, transB)
	}
	return m, n, ka, nil
}

func matmulK(a *Tensor, transA bool) int {
	if transA {
		return a.shape[0]
	}
	return a.shape[1]
}

// Cache-blocking parameters for the packed kernel (float32 elements):
// a packed A panel is blockM×blockK (64 KB), a packed B panel is
// blockK×blockN (128 KB) — together they sit comfortably in a 2016-era
// L2 cache while C microtile rows stream from L1.
const (
	blockM = 64
	blockK = 256
	blockN = 128

	// blockedMinWork is the m·n·k multiply-add count above which the
	// packed, tiled kernel beats the streaming kernels: packing has a
	// fixed per-panel cost that tiny products never amortize. It is read
	// off the dispatch section of TestKernelBenchArtifact.
	blockedMinWork = 1 << 12

	// microRows is the height of a micro-kernel strip. Below it the
	// blocked kernel computes rows nobody asked for, which only a SIMD
	// tile makes cheaper than streaming: blockedMinRows, the one
	// per-build value of the dispatch rule, is declared beside simdStrip
	// (1 where it has an AVX2 tile, microRows otherwise).
	microRows = 4

	// maxSlabPanels caps how many B column panels pack together per
	// reduction slab of the blocked kernel, bounding packed-B scratch
	// at maxSlabPanels × blockK × blockN floats (2 MB). The cap only
	// binds for short-and-wide products, where many panels per group
	// are what keeps the 2-D tile grid deep enough to chunk.
	maxSlabPanels = 16

	// streamSplitRows is the row count below which the streaming
	// kernels chunk over columns instead of rows: with fewer rows than
	// this, a row split cannot feed even a modest worker set, and
	// wide-but-short products (single-row inference GEMMs) would stay
	// single-threaded.
	streamSplitRows = 8
)

// picksBlocked is the dispatch rule: a product goes to the tiled, packed
// kernel when it has the work to amortize packing and the rows to fill
// enough of a strip. The row floor follows the tile the build has,
// except under transposed B: packing it is a strided transpose, and with
// fewer than microRows rows to share the panel the streaming dot
// kernels, which read B's rows in place, stay ahead on either build
// (m = 2, 512×512: blocked runs at 0.29× of streaming).
func picksBlocked(m, n, k int, transB bool) bool {
	rows := blockedMinRows
	if transB {
		rows = microRows
	}
	return m >= rows && int64(m)*int64(n)*int64(k) >= blockedMinWork
}

// matmulInto writes op(A)·op(B) into dst (len m*n), or with acc adds it
// to what dst holds: each element's ascending-k chain then starts from
// its stored value instead of zero, so a product split over the
// reduction dimension into successive acc calls gives the bits of the
// unsplit one. lda and ldb are the row strides of the *stored* A and B.
// Large products dispatch to the tiled, packed kernel; small ones keep
// the streaming kernels whose setup cost is near zero.
func matmulInto(p *Pool, dst, a, b []float32, m, n, k, lda, ldb int, transA, transB, acc bool) {
	if picksBlocked(m, n, k, transB) {
		matmulBlocked(p, dst, a, b, m, n, k, lda, ldb, transA, transB, acc)
		return
	}
	// Streaming kernels, chunked through the pool. The split axis is a
	// pure function of shape (never of width): products with enough
	// rows split over rows, short-and-wide products (below
	// streamSplitRows) split over columns, so single-row inference
	// GEMMs parallelize too. Every output element's k-accumulation
	// order is identical under either split, so the axis choice cannot
	// change result bits. Grains target roughly 64k multiply-adds per
	// chunk minimum.
	if m < streamSplitRows {
		colGrain := 1 + 65536/(m*k+1)
		p.For(n, colGrain, func(jlo, jhi int) {
			matmulStream(dst, a, b, 0, m, jlo, jhi, n, k, lda, ldb, transA, transB, acc)
		})
		return
	}
	rowGrain := 1 + 65536/(n*k+1)
	p.For(m, rowGrain, func(lo, hi int) {
		matmulStream(dst, a, b, lo, hi, 0, n, n, k, lda, ldb, transA, transB, acc)
	})
}

// matmulStream computes the [lo,hi)×[jlo,jhi) block of C = op(A)·op(B)
// with the streaming kernels (no packing): one transpose case each.
// Unless acc, the block is zeroed first; every case then accumulates
// onto what the block holds.
func matmulStream(dst, a, b []float32, lo, hi, jlo, jhi, n, k, lda, ldb int, transA, transB, acc bool) {
	if !acc {
		for i := lo; i < hi; i++ {
			clear(dst[i*n+jlo : i*n+jhi])
		}
	}
	switch {
	case transB:
		matmulDots(dst, a, b, lo, hi, jlo, jhi, n, k, lda, ldb, transA)
	case !transA:
		matmulRows(dst, a, b, lo, hi, jlo, jhi, n, k, lda, ldb)
	default:
		// A stored as (k, m): C[i,j] = Σ a[l,i]·b[l,j].
		w := jhi - jlo
		for i := lo; i < hi; i++ {
			ri := dst[i*n+jlo : i*n+jhi]
			for l := 0; l < k; l++ {
				av := a[l*lda+i]
				bl := b[l*ldb+jlo : l*ldb+jlo+w]
				for j, bv := range bl {
					ri[j] += float32(av * bv)
				}
			}
		}
	}
}

// matmulDots adds op(A)·Bᵀ to the [lo,hi)×[jlo,jhi) block of C for B
// stored as (n, k): C[i,j] = Σ_l op(A)[i,l]·b[j,l], a dot of two rows.
// When A is stored (k, m) its column i is first gathered into a row, a
// slab of the reduction at a time; each slab continues the chains from
// what the last one stored, so slabbing does not move a bit.
func matmulDots(dst, a, b []float32, lo, hi, jlo, jhi, n, k, lda, ldb int, transA bool) {
	if !transA {
		for i := lo; i < hi; i++ {
			dotRow(dst[i*n:(i+1)*n], a[i*lda:i*lda+k], b, jlo, jhi, ldb)
		}
		return
	}
	var col [blockK]float32
	for i := lo; i < hi; i++ {
		for l0 := 0; l0 < k; l0 += len(col) {
			ai := col[:min(len(col), k-l0)]
			for l := range ai {
				ai[l] = a[(l0+l)*lda+i]
			}
			dotRow(dst[i*n:(i+1)*n], ai, b[l0:], jlo, jhi, ldb)
		}
	}
}

// dotRow adds ai·b[j,:len(ai)] to ri[j] for j in [jlo,jhi), four output
// columns per pass over ai. Each column is still its own ascending
// chain — the bits are those of one column at a time — but four
// independent chains in flight hide the add latency a single dependent
// chain pays on every step. It is kept a small leaf: the compiler holds
// the four sums and row bases in registers only while nothing else is
// live.
func dotRow(ri, ai, b []float32, jlo, jhi, ldb int) {
	k := len(ai)
	j := jlo
	for ; j+4 <= jhi; j += 4 {
		b0 := b[j*ldb : j*ldb+k]
		b1 := b[(j+1)*ldb : (j+1)*ldb+k]
		b2 := b[(j+2)*ldb : (j+2)*ldb+k]
		b3 := b[(j+3)*ldb : (j+3)*ldb+k]
		s0, s1, s2, s3 := ri[j], ri[j+1], ri[j+2], ri[j+3]
		for l, av := range ai {
			s0 += float32(av * b0[l])
			s1 += float32(av * b1[l])
			s2 += float32(av * b2[l])
			s3 += float32(av * b3[l])
		}
		ri[j], ri[j+1], ri[j+2], ri[j+3] = s0, s1, s2, s3
	}
	for ; j < jhi; j++ {
		s := ri[j]
		for l, bv := range b[j*ldb : j*ldb+k] {
			s += float32(ai[l] * bv)
		}
		ri[j] = s
	}
}

// matmulBlocked is the tiled GEMM. The output is decomposed into a 2-D
// grid of blockM×blockN tiles — row blocks × column panels — and the
// tiles of one reduction slab form a single flat parallel region, so
// big square and tall/skinny products alike expose mBlocks×gPanels
// independent work units instead of the row-only split inside one
// column panel that stopped scaling near the row-chunk cap. Column
// panels are grouped (gPanels per group, shape-derived) so short
// matrices still yield a deep tile grid; B panels of a (group, slab)
// are packed once on the calling goroutine and shared read-only by
// every lane, while each executing lane packs A into its own per-lane
// panel, reused across the consecutive column panels of a row block
// (tiles iterate row-block-major within a chunk).
//
// Determinism: the tile grid, the panel groups and the chunk
// boundaries are pure functions of (m, n, k) — never of width — each
// tile owns a disjoint dst block, and the per-element accumulation
// over reduction slabs happens in the ascending pc order of the serial
// outer loop (ForLane joins between slabs). packA/packB contents are
// pure functions of the tile coordinates, so lane assignment cannot
// perturb results; bits match the row-only kernel exactly, because
// every output element still accumulates the same products in the same
// order.
func matmulBlocked(p *Pool, dst, a, b []float32, m, n, k, lda, ldb int, transA, transB, acc bool) {
	mBlocks := (m + blockM - 1) / blockM
	nPanels := (n + blockN - 1) / blockN
	// Panels per group: enough that mBlocks×groupPanels tiles reach the
	// region chunk cap even when m is short, bounded by maxSlabPanels
	// of packed-B scratch. Purely shape-derived.
	groupPanels := (maxRegionChunks + mBlocks - 1) / mBlocks
	if groupPanels > maxSlabPanels {
		groupPanels = maxSlabPanels
	}
	if groupPanels > nPanels {
		groupPanels = nPanels
	}
	// Scratch is sized by the slab depth the product really has, so the
	// small products the kernel also serves leave a small footprint.
	kcMax := min(blockK, k)
	panel := kcMax * blockN
	packB := p.scratchBuf(scratchPackB, groupPanels*panel)
	for jg := 0; jg < nPanels; jg += groupPanels {
		gPanels := min(groupPanels, nPanels-jg)
		for pc := 0; pc < k; pc += blockK {
			kc := min(blockK, k-pc)
			// The group's B panels are packed once per slab, outside
			// the parallel region: workers share the packed panels
			// rather than each repacking them.
			for jp := 0; jp < gPanels; jp++ {
				jc := (jg + jp) * blockN
				nc := min(blockN, n-jc)
				packPanelB(packB[jp*panel:], b, pc, kc, jc, nc, ldb, transB)
			}
			tiles := mBlocks * gPanels
			p.ForLane(tiles, 1, func(lane, lo, hi int) {
				packA := p.laneScratch(lane, scratchPackA, blockM*kcMax)
				lastIB := -1
				for t := lo; t < hi; t++ {
					ib, jp := t/gPanels, t%gPanels
					ic := ib * blockM
					mc := min(blockM, m-ic)
					jc := (jg + jp) * blockN
					nc := min(blockN, n-jc)
					if ib != lastIB {
						packPanelA(packA, a, ic, mc, pc, kc, lda, transA)
						lastIB = ib
					}
					matmulMicro(dst, packA, packB[jp*panel:], ic, mc, jc, nc, kc, n, pc == 0 && !acc)
				}
			})
		}
	}
}

// packPanelA copies op(A)[ic:ic+mc, pc:pc+kc] into pa, row-major mc×kc,
// and zero-fills rows up to the next multiple of four so the micro
// kernel's last strip is a full one.
func packPanelA(pa, a []float32, ic, mc, pc, kc, lda int, transA bool) {
	clear(pa[mc*kc : (mc+3)/4*4*kc])
	if !transA {
		for r := 0; r < mc; r++ {
			base := (ic+r)*lda + pc
			copy(pa[r*kc:r*kc+kc], a[base:base+kc])
		}
		return
	}
	// A stored (k, m): transpose while packing.
	for l := 0; l < kc; l++ {
		col := a[(pc+l)*lda+ic : (pc+l)*lda+ic+mc]
		for r, v := range col {
			pa[r*kc+l] = v
		}
	}
}

// packPanelB copies op(B)[pc:pc+kc, jc:jc+nc] into pb, row-major kc×nc.
func packPanelB(pb, b []float32, pc, kc, jc, nc, ldb int, transB bool) {
	if !transB {
		for l := 0; l < kc; l++ {
			base := (pc+l)*ldb + jc
			copy(pb[l*nc:l*nc+nc], b[base:base+nc])
		}
		return
	}
	// B stored (n, k): transpose while packing.
	for j := 0; j < nc; j++ {
		row := b[(jc+j)*ldb+pc : (jc+j)*ldb+pc+kc]
		for l, v := range row {
			pb[l*nc+j] = v
		}
	}
}

// matmulMicro accumulates C[ic:ic+mc, jc:jc+nc] += packA·packB. Rows go
// in strips of four: simdStrip runs the strip's full 16- and 8-column
// tiles on the AVX2 kernel where the build and the CPU have one (it
// reports zero columns otherwise) and microStrip4 finishes the strip in
// Go. The up-to-three rows left over run as one more strip on a stack
// tile, against the zero rows packPanelA pads the panel with, and only
// the real rows are copied back. When first is true the C block starts
// from zero instead of its current contents.
//
// Every product in this file — here and in the streaming kernels — is
// written float32(a*b): the explicit conversion forbids the compiler
// from fusing the multiply into the add where the target has an FMA
// (arm64 today, amd64 at whatever GOAMD64 level starts to), so each
// output element is the same ascending-k chain of one rounded multiply
// and one rounded add in the assembly tile, the Go tile and the
// streaming kernels, on every build. attention.go writes its dots the
// same way, because FusedAttention promises the bits of this chain.
func matmulMicro(dst, pa, pb []float32, ic, mc, jc, nc, kc, ldc int, first bool) {
	i := 0
	for ; i+4 <= mc; i += 4 {
		o := (ic+i)*ldc + jc
		j := simdStrip(dst[o:o+3*ldc+nc], ldc, pa[i*kc:(i+4)*kc], kc, pb[:kc*nc], nc, first)
		microStrip4(dst, pa, pb, o, i, j, nc, kc, ldc, first)
	}
	if i == mc {
		return
	}
	var tile [4 * blockN]float32
	o := (ic+i)*ldc + jc
	if !first {
		for r := 0; r < mc-i; r++ {
			copy(tile[r*nc:(r+1)*nc], dst[o+r*ldc:])
		}
	}
	j := simdStrip(tile[:4*nc], nc, pa[i*kc:(i+4)*kc], kc, pb[:kc*nc], nc, first)
	microStrip4(tile[:], pa, pb, 0, i, j, nc, kc, nc, first)
	for r := 0; r < mc-i; r++ {
		copy(dst[o+r*ldc:o+r*ldc+nc], tile[r*nc:])
	}
}

// microStrip4 is the Go micro-tile: columns [j,nc) of the four C rows
// starting at dst[o], with 4×2 register tiling — eight scalar
// accumulators live in registers across the whole K loop, so the inner
// loop performs six loads and no stores per eight multiply-adds (4×4
// tiling spills accumulators on amd64's sixteen vector registers and
// measures slower).
func microStrip4(dst, pa, pb []float32, o, i, j, nc, kc, ldc int, first bool) {
	a0 := pa[i*kc : i*kc+kc]
	a1 := pa[(i+1)*kc : (i+1)*kc+kc]
	a2 := pa[(i+2)*kc : (i+2)*kc+kc]
	a3 := pa[(i+3)*kc : (i+3)*kc+kc]
	r0 := dst[o : o+nc]
	r1 := dst[o+ldc : o+ldc+nc]
	r2 := dst[o+2*ldc : o+2*ldc+nc]
	r3 := dst[o+3*ldc : o+3*ldc+nc]
	for ; j+2 <= nc; j += 2 {
		var c00, c01, c10, c11, c20, c21, c30, c31 float32
		if !first {
			c00, c01 = r0[j], r0[j+1]
			c10, c11 = r1[j], r1[j+1]
			c20, c21 = r2[j], r2[j+1]
			c30, c31 = r3[j], r3[j+1]
		}
		bo := j
		for l := 0; l < kc; l++ {
			b0, b1 := pb[bo], pb[bo+1]
			c00 += float32(a0[l] * b0)
			c01 += float32(a0[l] * b1)
			c10 += float32(a1[l] * b0)
			c11 += float32(a1[l] * b1)
			c20 += float32(a2[l] * b0)
			c21 += float32(a2[l] * b1)
			c30 += float32(a3[l] * b0)
			c31 += float32(a3[l] * b1)
			bo += nc
		}
		r0[j], r0[j+1] = c00, c01
		r1[j], r1[j+1] = c10, c11
		r2[j], r2[j+1] = c20, c21
		r3[j], r3[j+1] = c30, c31
	}
	if j < nc {
		var s0, s1, s2, s3 float32
		if !first {
			s0, s1, s2, s3 = r0[j], r1[j], r2[j], r3[j]
		}
		bo := j
		for l := 0; l < kc; l++ {
			bv := pb[bo]
			s0 += float32(a0[l] * bv)
			s1 += float32(a1[l] * bv)
			s2 += float32(a2[l] * bv)
			s3 += float32(a3[l] * bv)
			bo += nc
		}
		r0[j], r1[j], r2[j], r3[j] = s0, s1, s2, s3
	}
}

// matmulRows adds A·B to the [lo,hi)×[jlo,jhi) block of C with
// 4-row register blocking: each pass over a B row feeds four
// accumulator rows, quartering memory traffic on B.
func matmulRows(dst, a, b []float32, lo, hi, jlo, jhi, n, k, lda, ldb int) {
	w := jhi - jlo
	i := lo
	for ; i+4 <= hi; i += 4 {
		r0 := dst[i*n+jlo : i*n+jhi]
		r1 := dst[(i+1)*n+jlo : (i+1)*n+jhi]
		r2 := dst[(i+2)*n+jlo : (i+2)*n+jhi]
		r3 := dst[(i+3)*n+jlo : (i+3)*n+jhi]
		a0 := a[i*lda : i*lda+k]
		a1 := a[(i+1)*lda : (i+1)*lda+k]
		a2 := a[(i+2)*lda : (i+2)*lda+k]
		a3 := a[(i+3)*lda : (i+3)*lda+k]
		for l := 0; l < k; l++ {
			bl := b[l*ldb+jlo : l*ldb+jlo+w]
			av0, av1, av2, av3 := a0[l], a1[l], a2[l], a3[l]
			for j, bv := range bl {
				r0[j] += float32(av0 * bv)
				r1[j] += float32(av1 * bv)
				r2[j] += float32(av2 * bv)
				r3[j] += float32(av3 * bv)
			}
		}
	}
	for ; i < hi; i++ {
		ri := dst[i*n+jlo : i*n+jhi]
		ai := a[i*lda : i*lda+k]
		for l := 0; l < k; l++ {
			av := ai[l]
			bl := b[l*ldb+jlo : l*ldb+jlo+w]
			for j, bv := range bl {
				ri[j] += float32(av * bv)
			}
		}
	}
}
