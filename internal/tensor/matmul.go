package tensor

import "fmt"

// MatMul computes C = op(A) · op(B) for 2-D tensors, where op is an
// optional transpose. The destination is freshly allocated. The kernel
// parallelizes over output tiles through the pool.
func MatMul(p *Pool, a, b *Tensor, transA, transB bool) (*Tensor, error) {
	m, n, k, err := matmulDims(a, b, transA, transB)
	if err != nil {
		return nil, err
	}
	out := New(m, n)
	matmulInto(p, out.data, a.data, b.data, m, n, k, a.shape[1], b.shape[1], transA, transB, false)
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

// Cache-blocking parameters of the GEMM (float32 elements): a packed A
// panel is at most blockM×blockK (64 KB), a packed B panel at most
// blockK×blockN (128 KB) — together they sit comfortably in a 2016-era
// L2 cache while C microtile rows stream from L1.
const (
	blockM = 64
	blockK = 256
	blockN = 128

	// maxSlabPanels caps how many B column panels pack together per
	// reduction slab, bounding packed-B scratch at maxSlabPanels ×
	// blockK × blockN floats (2 MB). The cap only binds for
	// short-and-wide products, where many panels per group are what
	// keeps the 2-D tile grid deep enough to chunk.
	maxSlabPanels = 16
)

// matmulInto writes op(A)·op(B) into dst (len m*n), or with acc adds it
// to what dst holds: each element's ascending-k chain then starts from
// its stored value instead of zero, so a product split over the
// reduction dimension into successive acc calls gives the bits of the
// unsplit one. lda and ldb are the row strides of the *stored* A and B.
//
// It is the one GEMM, for every shape. The output is decomposed into a
// 2-D grid of blockM×blockN tiles — row blocks × column panels — and
// the tiles of one reduction slab form a single flat parallel region,
// so big square and tall/skinny products alike expose mBlocks×gPanels
// independent work units. Column panels are grouped (gPanels per
// group, shape-derived) so short matrices still yield a deep tile
// grid; B panels of a (group, slab) are packed once on the calling
// goroutine and shared read-only by every lane, while each executing
// lane packs A into its own per-lane panel, reused across the
// consecutive column panels of a row block (tiles iterate
// row-block-major within a chunk). Scratch is sized by the slab depth,
// row-block height and panel width the product really has, so the
// many tiny products (per-head attention, 12×8×12) leave a tiny
// footprint.
//
// Determinism: the tile grid, the panel groups and the chunk
// boundaries are pure functions of (m, n, k) — never of width — each
// tile owns a disjoint dst block, and the per-element accumulation
// over reduction slabs happens in the ascending pc order of the serial
// outer loop (the region joins between slabs). Packed contents are
// pure functions of the tile coordinates, so lane assignment cannot
// perturb results: every output element accumulates the same products
// in the same order at every width.
func matmulInto(p *Pool, dst, a, b []float32, m, n, k, lda, ldb int, transA, transB, acc bool) {
	matmulLane(p, -1, dst, a, b, m, n, k, lda, ldb, transA, transB, acc)
}

// matmulLane is matmulInto's body. A lane ≥ 0 runs every tile on that
// lane, packs B into that lane's own scratch and opens no region: the
// form for a kernel already inside a region chunk (attention). Lane -1
// is the caller outside any region: a slab whose tiles split becomes a
// region sharing lane 0's packed B, and one that does not runs on lane
// 0 by the same path as a lane ≥ 0.
func matmulLane(p *Pool, lane int, dst, a, b []float32, m, n, k, lda, ldb int, transA, transB, acc bool) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !acc {
			clear(dst[:m*n])
		}
		return
	}
	mBlocks := (m + blockM - 1) / blockM
	nPanels := (n + blockN - 1) / blockN
	// Panels per group: enough that mBlocks×groupPanels tiles reach the
	// region chunk cap even when m is short, bounded by maxSlabPanels
	// of packed-B scratch. Purely shape-derived.
	groupPanels := min((maxRegionChunks+mBlocks-1)/mBlocks, maxSlabPanels, nPanels)
	s := gemmSlab{dst: dst, a: a, b: b, m: m, n: n, lda: lda, transA: transA,
		kcMax: min(blockK, k), mcMax: min(blockM, m), panel: min(blockK, k) * min(blockN, n)}
	own := max(lane, 0)
	packB := p.laneScratch(own, scratchPackB, groupPanels*s.panel)
	for jg := 0; jg < nPanels; jg += groupPanels {
		gPanels := min(groupPanels, nPanels-jg)
		for pc := 0; pc < k; pc += blockK {
			kc := min(blockK, k-pc)
			// The group's B panels are packed once per slab, outside
			// any region: its workers share the packed panels rather
			// than each repacking them.
			for jp := 0; jp < gPanels; jp++ {
				jc := (jg + jp) * blockN
				packPanelB(packB[jp*s.panel:], b, pc, kc, jc, min(blockN, n-jc), ldb, transB)
			}
			s.packB, s.jg, s.gPanels, s.pc, s.kc, s.first = packB, jg, gPanels, pc, kc, pc == 0 && !acc
			tiles := mBlocks * gPanels
			if lane >= 0 || p.inline(tiles, 1) {
				s.tiles(p, own, 0, tiles)
			} else {
				s.forTiles(p, tiles)
			}
		}
	}
}

// gemmSlab is one reduction slab of one panel group: what a tile needs
// to pack its A panel and run the micro kernel.
type gemmSlab struct {
	dst, a, b, packB    []float32
	m, n, lda           int
	jg, gPanels, pc, kc int
	kcMax, mcMax, panel int
	transA, first       bool
}

// tiles runs tiles [lo,hi) of the slab on lane.
func (s gemmSlab) tiles(p *Pool, lane, lo, hi int) {
	packA := p.laneScratch(lane, scratchPackA, (s.mcMax+3)/4*4*s.kcMax)
	lastIB := -1
	for t := lo; t < hi; t++ {
		ib, jp := t/s.gPanels, t%s.gPanels
		ic := ib * blockM
		mc := min(blockM, s.m-ic)
		jc := (s.jg + jp) * blockN
		if ib != lastIB {
			packPanelA(packA, s.a, ic, mc, s.pc, s.kc, s.lda, s.transA)
			lastIB = ib
		}
		matmulMicro(s.dst, packA, s.packB[jp*s.panel:], ic, mc, jc, min(blockN, s.n-jc), s.kc, s.n, s.first)
	}
}

// forTiles runs the slab's tiles as a pool region. It takes the slab by
// value so that only a region that splits moves one to the heap for
// its closure (see Pool.inline).
func (s gemmSlab) forTiles(p *Pool, tiles int) {
	p.ForLane(tiles, 1, func(lane, lo, hi int) { s.tiles(p, lane, lo, hi) })
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
	// B stored (n, k): transpose while packing, eight B rows per pass,
	// so every packed row takes a run of eight adjacent writes instead
	// of one strided store per element (a 256×128 panel: about 65 → 16
	// µs, where the plain copy above takes 5). Each source row is cut to
	// exactly kc, so the loop's one l < kc test bounds all eight reads.
	j := 0
	for ; j+8 <= nc; j += 8 {
		o := (jc+j)*ldb + pc
		r0, r1 := b[o:][:kc], b[o+ldb:][:kc]
		r2, r3 := b[o+2*ldb:][:kc], b[o+3*ldb:][:kc]
		r4, r5 := b[o+4*ldb:][:kc], b[o+5*ldb:][:kc]
		r6, r7 := b[o+6*ldb:][:kc], b[o+7*ldb:][:kc]
		for l := 0; l < kc; l++ {
			d := (*[8]float32)(pb[l*nc+j:])
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = r0[l], r1[l], r2[l], r3[l], r4[l], r5[l], r6[l], r7[l]
		}
	}
	for ; j < nc; j++ {
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
// Every product in this file is written float32(a*b): the explicit
// conversion forbids the compiler from fusing the multiply into the add
// where the target has an FMA (arm64 today, amd64 at whatever GOAMD64
// level starts to), so each output element is the same ascending-k
// chain of one rounded multiply and one rounded add in the assembly
// tile and the Go tile, on every build.
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
