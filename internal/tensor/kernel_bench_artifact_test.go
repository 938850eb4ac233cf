package tensor

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/sched"
)

// benchBest returns the fastest of iters timed runs of each f, in
// seconds, after a garbage collection (as testing.B makes before each
// benchmark, so an earlier kernel's garbage is not collected during
// these runs) and one warm-up run of each. The fs take turns run by
// run: a host that slows down or speeds up part-way through weighs on
// every f alike, so their ratios hold where their times drift.
func benchBest(iters int, fs ...func()) []float64 {
	goruntime.GC()
	best := make([]float64, len(fs))
	for i, f := range fs {
		f()
		best[i] = math.MaxFloat64
	}
	for n := 0; n < iters; n++ {
		for i, f := range fs {
			t0 := time.Now()
			f()
			best[i] = min(best[i], time.Since(t0).Seconds())
		}
	}
	return best
}

// TestKernelBenchArtifact writes the BENCH_kernels.json trajectory
// artifact, every section gated on bit-equality before anything is
// timed:
//
//   - GEMM: the 2-D tiled kernel against the row-only kernel it replaced
//     (a verbatim copy below), over a big square, a tall/skinny and a
//     short-and-wide product;
//   - micro-tile: the dispatching micro kernel (AVX2 tiles where the
//     build has them) against the Go tile alone, on one packed block;
//   - convolution: the three lowered passes against the direct loop
//     nests they replaced (conv_test.go), strided and tiny shapes
//     included;
//   - attention: the fused kernel (both products on the GEMM, a block
//     of query rows at a time) against the materialized chain.
//
// Everything is measured at width 1. A second, wide width — the largest
// of 8, 4, 2 the host has processors for — adds rows and scaling
// columns; on a one-processor host there is none, because a "scaling"
// number measured without the processors to scale onto reads 1.00× by
// construction.
//
// Gated behind KERNEL_BENCH=<path> (the CI bench job sets it); skipped
// otherwise so the regular test sweep stays fast.
func TestKernelBenchArtifact(t *testing.T) {
	path := os.Getenv("KERNEL_BENCH")
	if path == "" {
		t.Skip("set KERNEL_BENCH=<path> to write the kernel bench artifact")
	}

	widths := []int{1}
	pools := map[int]*Pool{1: NewPool(1)}
	for _, w := range []int{8, 4, 2} {
		if w <= goruntime.NumCPU() {
			ex := sched.New(w - 1)
			defer ex.Close()
			widths, pools[w] = append(widths, w), NewParallelPool(w, ex)
			break
		}
	}
	wide := widths[len(widths)-1] // 1 when the host has no second processor
	p1 := pools[1]

	// The SIMD tile is in use iff simdStrip takes a full 4×16 tile.
	simd := "none"
	if simdStrip(make([]float32, 64), 16, make([]float32, 4), 1, make([]float32, 16), 16, true) > 0 {
		simd = "avx2 4x16+4x8, mul+add"
	}

	type row struct {
		Kernel  string  `json:"kernel"`
		Workers int     `json:"workers"`
		MsPerOp float64 `json:"ms_per_op"`
		GFLOPS  float64 `json:"gflops"`
	}
	// measure times the kernels at every width, taking turns (see
	// benchBest), and returns the rows plus the best times keyed by
	// kernel name, per width.
	type kernel struct {
		label string
		run   func(p *Pool)
	}
	measure := func(iters int, flops float64, kernels ...kernel) ([]row, map[string]map[int]float64) {
		times := map[string]map[int]float64{}
		for _, k := range kernels {
			times[k.label] = map[int]float64{}
		}
		for _, w := range widths {
			fs := make([]func(), len(kernels))
			for i, k := range kernels {
				fs[i] = func() { k.run(pools[w]) }
			}
			for i, best := range benchBest(iters, fs...) {
				times[kernels[i].label][w] = best
			}
		}
		var rows []row
		for _, k := range kernels {
			for _, w := range widths {
				best := times[k.label][w]
				rows = append(rows, row{k.label, w, best * 1e3, flops / best / 1e9})
			}
		}
		return rows, times
	}
	// scaling is the wide-width columns of a new-vs-baseline pair,
	// omitted (nil) when the host has no wide width.
	type scaling struct {
		Workers         int     `json:"workers"`
		NewScaling      float64 `json:"new_scaling"`       // new w1 time / new wide time
		BaselineScaling float64 `json:"baseline_scaling"`  // old w1 time / old wide time
		NewOverBaseline float64 `json:"new_over_baseline"` // old wide time / new wide time
	}
	scalingOf := func(neu, old map[int]float64) *scaling {
		if wide == 1 {
			return nil
		}
		return &scaling{wide, neu[1] / neu[wide], old[1] / old[wide], old[wide] / neu[wide]}
	}

	type shapeResult struct {
		Shape             string   `json:"shape"`
		M                 int      `json:"m"`
		K                 int      `json:"k"`
		N                 int      `json:"n"`
		Rows              []row    `json:"rows"`
		NewOverBaselineW1 float64  `json:"new_over_baseline_w1"` // old w1 time / new w1 time
		Wide              *scaling `json:"wide,omitempty"`
	}
	rng := rand.New(rand.NewSource(31))
	var results []shapeResult
	for _, s := range []struct {
		name    string
		m, k, n int
		iters   int
	}{
		{"square_1024", 1024, 1024, 1024, 3},
		{"tall_4096x256x64", 4096, 256, 64, 5},
		{"wide_2x64x4096", 2, 64, 4096, 10},
	} {
		a := RandNormal(rng, 0, 1, s.m, s.k)
		b := RandNormal(rng, 0, 1, s.k, s.n)
		dst, ref := New(s.m, s.n), New(s.m, s.n)
		newKernel := func(p *Pool) {
			matmulInto(p, dst.data, a.data, b.data, s.m, s.n, s.k, s.k, s.n, false, false, false)
		}
		oldKernel := func(p *Pool) {
			matmulBlockedRowOnly(p, ref.data, a.data, b.data, s.m, s.n, s.k, s.k, s.n, false, false)
		}
		// The tiled kernel keeps every output element's accumulation
		// order, so old and new must agree exactly at every width.
		for w, p := range pools {
			newKernel(p)
			oldKernel(p)
			if d := MaxAbsDiff(dst, ref); d != 0 {
				t.Fatalf("%s width %d: tiled kernel differs from row-only baseline (max |Δ| %g)", s.name, w, d)
			}
		}
		rows, times := measure(s.iters, 2*float64(s.m)*float64(s.k)*float64(s.n),
			kernel{"tiled2d", newKernel}, kernel{"row_only", oldKernel})
		res := shapeResult{Shape: s.name, M: s.m, K: s.k, N: s.n, Rows: rows,
			NewOverBaselineW1: times["row_only"][1] / times["tiled2d"][1],
			Wide:              scalingOf(times["tiled2d"], times["row_only"])}
		results = append(results, res)
		t.Logf("%s: tiled %.2fms vs row-only %.2fms at width 1", s.name, times["tiled2d"][1]*1e3, times["row_only"][1]*1e3)
	}

	// Micro-tile section: one full packed block (blockM×blockK · blockK×
	// blockN), the dispatching kernel against the Go tile run strip by
	// strip. On a build without the assembly the two rows are the same
	// code and the ratio reads 1.
	var microResult struct {
		Block          string  `json:"block"`
		DispatchGFLOPS float64 `json:"dispatch_gflops"`
		GoTileGFLOPS   float64 `json:"go_tile_gflops"`
		DispatchOverGo float64 `json:"dispatch_over_go"`
	}
	microResult.Block = fmt.Sprintf("%dx%dx%d", blockM, blockK, blockN)
	{
		pa := RandNormal(rng, 0, 1, blockM, blockK).data
		pb := RandNormal(rng, 0, 1, blockK, blockN).data
		got, want := make([]float32, blockM*blockN), make([]float32, blockM*blockN)
		dispatch := func() { matmulMicro(got, pa, pb, 0, blockM, 0, blockN, blockK, blockN, true) }
		goTile := func() {
			for i := 0; i < blockM; i += 4 {
				microStrip4(want, pa, pb, i*blockN, i, 0, blockN, blockK, blockN, true)
			}
		}
		dispatch()
		goTile()
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("micro-tile: element %d differs between the dispatching kernel and the Go tile", i)
		}
		flops := 2 * float64(blockM) * float64(blockK) * float64(blockN)
		td, tg := benchBest(200, dispatch)[0], benchBest(50, goTile)[0]
		microResult.DispatchGFLOPS, microResult.GoTileGFLOPS, microResult.DispatchOverGo = flops/td/1e9, flops/tg/1e9, tg/td
		t.Logf("micro-tile (%s): dispatch %.1f GFLOP/s vs Go tile %.1f GFLOP/s", simd, microResult.DispatchGFLOPS, microResult.GoTileGFLOPS)
	}

	// Convolution section: each lowered pass against its direct loop
	// nest, width 1 (the loop nests are serial).
	type convPass struct {
		Pass         string  `json:"pass"`
		LoweredMs    float64 `json:"lowered_ms"`
		LoopMs       float64 `json:"loop_ms"`
		LoweredOverL float64 `json:"lowered_over_loop"` // loop time / lowered time
	}
	type convResult struct {
		Shape  string     `json:"shape"`
		Stride int        `json:"stride"`
		Passes []convPass `json:"passes"`
	}
	var convResults []convResult
	for _, c := range convBenchCases {
		oh := ConvOutSize(c.h, c.kh, c.spec.StrideH, c.spec.PadH)
		ow := ConvOutSize(c.w, c.kw, c.spec.StrideW, c.spec.PadW)
		in := RandNormal(rng, 0, 1, c.n, c.h, c.w, c.cin)
		f := RandNormal(rng, 0, 1, c.kh, c.kw, c.cin, c.cout)
		dy := RandNormal(rng, 0, 1, c.n, oh, ow, c.cout)
		checkConvLowering(t, p1, c.convCase, 1)
		res := convResult{Shape: c.name, Stride: c.spec.StrideH}
		for _, ps := range []struct {
			name          string
			out           *Tensor
			lowered, loop func(out *Tensor)
		}{
			{"forward", New(c.n, oh, ow, c.cout),
				func(out *Tensor) { _ = Conv2DInto(p1, out, in, f, c.spec) },
				func(out *Tensor) { conv2DDirect(out, in, f, c.spec) }},
			{"back_filter", New(c.kh, c.kw, c.cin, c.cout),
				func(out *Tensor) { _ = Conv2DBackFilterInto(p1, out, in, dy, c.kh, c.kw, c.spec) },
				func(out *Tensor) { conv2DBackFilterDirect(out, in, dy, c.kh, c.kw, c.spec) }},
			{"back_input", New(c.n, c.h, c.w, c.cin),
				func(out *Tensor) { _ = Conv2DBackInputInto(p1, out, f, dy, c.h, c.w, c.spec) },
				func(out *Tensor) { conv2DBackInputDirect(out, f, dy, c.spec) }},
		} {
			tl := benchBest(10, func() { ps.lowered(ps.out) })[0]
			to := benchBest(3, func() { ps.loop(ps.out) })[0]
			res.Passes = append(res.Passes, convPass{ps.name, tl * 1e3, to * 1e3, to / tl})
		}
		convResults = append(convResults, res)
		t.Logf("conv %s: forward %.1fx, back-filter %.1fx, back-input %.1fx over the loop nests",
			c.name, res.Passes[0].LoweredOverL, res.Passes[1].LoweredOverL, res.Passes[2].LoweredOverL)
	}

	// Attention section: the fused kernel against the unfused
	// materialized chain (Transpose → BatchMatMul → Mul → Softmax →
	// BatchMatMul). Alongside throughput it records the working-set
	// story the fusion exists for: the naive chain materializes Kᵀ plus
	// three (G,S,S) tensors and a per-slice matmul result, while the
	// fused kernel holds one R×S score block per lane, R = min(S,
	// blockM).
	type attnShapeResult struct {
		Shape             string   `json:"shape"`
		G                 int      `json:"g"`
		S                 int      `json:"s"`
		Dh                int      `json:"dh"`
		Rows              []row    `json:"rows"`
		FusedOverNaiveW1  float64  `json:"fused_over_naive_w1"` // naive w1 time / fused w1 time
		Wide              *scaling `json:"wide,omitempty"`
		NaivePeakBytes    int64    `json:"naive_peak_bytes"`    // materialized intermediates
		FusedScratchBytes int64    `json:"fused_scratch_bytes"` // per-lane R×S score blocks, all lanes
	}
	var attnResults []attnShapeResult
	for _, s := range []struct {
		name     string
		g, s, dh int
		iters    int
	}{
		{"longseq_4x1024x16", 4, 1024, 16, 3},
		{"tinyhead_16x256x8", 16, 256, 8, 5},
		{"base_8x256x64", 8, 256, 64, 3},
	} {
		arng := rand.New(rand.NewSource(47))
		q := RandNormal(arng, 0, 1, s.g, s.s, s.dh)
		k := RandNormal(arng, 0, 1, s.g, s.s, s.dh)
		v := RandNormal(arng, 0, 1, s.g, s.s, s.dh)
		scale := float32(1 / math.Sqrt(float64(s.dh)))
		out := New(s.g, s.s, s.dh)
		for w, p := range pools {
			if err := AttentionInto(p, out, q, k, v, scale); err != nil {
				t.Fatal(err)
			}
			ref := naiveAttentionRef(t, p, q, k, v, scale)
			if d := MaxAbsDiff(out, ref); d != 0 {
				t.Fatalf("%s width %d: fused attention differs from naive chain (max |Δ| %g)", s.name, w, d)
			}
		}
		// QKᵀ and P·V mul-adds; the softmax between them is O(S) per
		// row and excluded, as is conventional.
		rows, times := measure(s.iters, 4*float64(s.g)*float64(s.s)*float64(s.s)*float64(s.dh),
			kernel{"fused_blocked", func(p *Pool) { _ = AttentionInto(p, out, q, k, v, scale) }},
			kernel{"naive_chain", func(p *Pool) { naiveAttentionRef(t, p, q, k, v, scale) }})
		gss := int64(s.g) * int64(s.s) * int64(s.s)
		attnResults = append(attnResults, attnShapeResult{Shape: s.name, G: s.g, S: s.s, Dh: s.dh, Rows: rows,
			FusedOverNaiveW1:  times["naive_chain"][1] / times["fused_blocked"][1],
			Wide:              scalingOf(times["fused_blocked"], times["naive_chain"]),
			NaivePeakBytes:    4 * (3*gss + int64(s.g)*int64(s.s)*int64(s.dh) + int64(s.s)*int64(s.s)),
			FusedScratchBytes: 4 * int64(min(s.s, blockM)) * int64(s.s) * int64(wide)})
		t.Logf("%s: fused %.1fms vs naive %.1fms at width 1", s.name, times["fused_blocked"][1]*1e3, times["naive_chain"][1]*1e3)
	}

	artifact := struct {
		Kind      string            `json:"kind"`
		HostCPUs  int               `json:"host_cpus"`
		GoVersion string            `json:"go_version"`
		SIMD      string            `json:"simd"`
		Widths    []int             `json:"widths"`
		Shapes    []shapeResult     `json:"shapes"`
		MicroTile any               `json:"micro_tile"`
		Conv      []convResult      `json:"conv"`
		Attention []attnShapeResult `json:"attention"`
	}{"kernels", goruntime.NumCPU(), goruntime.Version(), simd, widths, results, microResult, convResults, attnResults}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// matmulBlockedRowOnly is the pre-tier-2 blocked GEMM, verbatim: one
// column panel at a time, B packed per (panel, slab), and parallelism
// only over the rows inside the current panel. Kept as the measurement
// baseline for BENCH_kernels.json.
func matmulBlockedRowOnly(p *Pool, dst, a, b []float32, m, n, k, lda, ldb int, transA, transB bool) {
	packB := p.scratchBuf(scratchPackB, blockK*blockN)
	for jc := 0; jc < n; jc += blockN {
		nc := min(blockN, n-jc)
		for pc := 0; pc < k; pc += blockK {
			kc := min(blockK, k-pc)
			packPanelB(packB, b, pc, kc, jc, nc, ldb, transB)
			grain := 1 + 65536/(nc*kc+1)
			p.ForLane(m, grain, func(lane, lo, hi int) {
				packA := p.laneScratch(lane, scratchPackA, blockM*blockK)
				for ic := lo; ic < hi; ic += blockM {
					mc := min(blockM, hi-ic)
					packPanelA(packA, a, ic, mc, pc, kc, lda, transA)
					matmulMicro(dst, packA, packB, ic, mc, jc, nc, kc, n, pc == 0)
				}
			})
		}
	}
}
