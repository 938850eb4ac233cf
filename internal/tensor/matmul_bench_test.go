package tensor

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sched"
)

func benchMatMul(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	p := NewPool(1)
	a := RandNormal(rng, 0, 1, m, k)
	bb := RandNormal(rng, 0, 1, k, n)
	b.SetBytes(int64(2 * m * k * n)) // MACs as "bytes" => shows MFLOP/s*2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMul(p, a, bb, false, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatMul sweeps square sizes from one that fits in L1 to ones
// whose operands fall out of L2, where the packing earns its keep.
func BenchmarkMatMul(b *testing.B) {
	for _, s := range []int{64, 128, 256, 384, 512} {
		b.Run(fmt.Sprintf("%dx%dx%d", s, s, s), func(b *testing.B) { benchMatMul(b, s, s, s) })
	}
}

func BenchmarkMatMul128(b *testing.B)    { benchMatMul(b, 128, 128, 128) }
func BenchmarkMatMul512(b *testing.B)    { benchMatMul(b, 512, 512, 512) }
func BenchmarkMatMulSkinny(b *testing.B) { benchMatMul(b, 8, 64, 256) }

// BenchmarkMatMulInto measures the allocation-free fast path compiled
// plans use.
func BenchmarkMatMulInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := NewPool(1)
	const s = 256
	a := RandNormal(rng, 0, 1, s, s)
	bb := RandNormal(rng, 0, 1, s, s)
	out := New(s, s)
	b.SetBytes(int64(2 * s * s * s))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MatMulInto(p, out, a, bb, false, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatMulIntraOpLarge is the tier-2 acceptance shape: a 1024³
// product on the 2-D tiled kernel at widths 1 and 8. The tile grid
// exposes mBlocks×gPanels flat work units per reduction slab, so on a
// multi-core host width 8 should track the row-only kernel's width-1
// time divided by close to the worker count (BENCH_kernels.json records
// the same comparison against the retained row-only baseline).
func BenchmarkMatMulIntraOpLarge(b *testing.B) {
	const s = 1024
	rng := rand.New(rand.NewSource(1))
	a := RandNormal(rng, 0, 1, s, s)
	bb := RandNormal(rng, 0, 1, s, s)
	out := New(s, s)
	for _, w := range []int{1, 8} {
		b.Run(fmt.Sprintf("intraop%d", w), func(b *testing.B) {
			var p *Pool
			if w == 1 {
				p = NewPool(1)
			} else {
				ex := sched.New(w - 1)
				defer ex.Close()
				p = NewParallelPool(w, ex)
			}
			b.SetBytes(int64(2 * s * s * s))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := MatMulInto(p, out, a, bb, false, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMatMulTallSkinny drives the tall/skinny blocked shape
// (gradient-accumulation GEMMs): a single column panel, where the 2-D
// tile grid is what keeps more than one worker busy.
func BenchmarkMatMulTallSkinny(b *testing.B) {
	benchMatMulWidths(b, 4096, 256, 64)
}

// BenchmarkMatMulShortWide drives the short-and-wide shape (few-row
// inference GEMMs): one row block, so the tile grid splits over column
// panels, the axis a row-only split could not use.
func BenchmarkMatMulShortWide(b *testing.B) {
	benchMatMulWidths(b, 2, 64, 4096)
}

func benchMatMulWidths(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	a := RandNormal(rng, 0, 1, m, k)
	bb := RandNormal(rng, 0, 1, k, n)
	out := New(m, n)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("intraop%d", w), func(b *testing.B) {
			var p *Pool
			if w == 1 {
				p = NewPool(1)
			} else {
				ex := sched.New(w - 1)
				defer ex.Close()
				p = NewParallelPool(w, ex)
			}
			b.SetBytes(int64(2 * m * k * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := MatMulInto(p, out, a, bb, false, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// convBenchCases are the convolution benchmark geometries: a VGG-like
// layer, AlexNet's strided conv1 at the small preset, and the two ends
// of the tiny preset (the smallest products the lowering serves, where
// a direct loop nest used to be kept).
var convBenchCases = []struct {
	name string
	convCase
}{
	{"vgg_56x56x64", convCase{1, 56, 56, 64, 3, 3, 64, ConvSpec{1, 1, 1, 1}}},
	{"alexnet_conv1", convCase{1, 64, 64, 3, 11, 11, 24, ConvSpec{4, 4, 2, 2}}},
	{"tiny_conv1", convCase{1, 64, 64, 3, 11, 11, 8, ConvSpec{4, 4, 2, 2}}},
	{"tiny_3x3x16", convCase{1, 7, 7, 16, 3, 3, 24, ConvSpec{1, 1, 1, 1}}},
}

// benchConv runs one convolution pass over the unit-stride or the
// strided cases; throughput (SetBytes = 2·MACs) is comparable across
// passes and with the GEMM benchmarks.
func benchConv(b *testing.B, strided bool, pass func(p *Pool, in, f, dy *Tensor, c convCase) error) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range convBenchCases {
		if (c.spec.StrideH > 1) != strided {
			continue
		}
		b.Run(c.name, func(b *testing.B) {
			p := NewPool(1)
			oh := ConvOutSize(c.h, c.kh, c.spec.StrideH, c.spec.PadH)
			ow := ConvOutSize(c.w, c.kw, c.spec.StrideW, c.spec.PadW)
			in := RandNormal(rng, 0, 1, c.n, c.h, c.w, c.cin)
			f := RandNormal(rng, 0, 1, c.kh, c.kw, c.cin, c.cout)
			dy := RandNormal(rng, 0, 1, c.n, oh, ow, c.cout)
			b.SetBytes(2 * int64(c.n*oh*ow) * int64(c.cout) * int64(c.kh*c.kw*c.cin))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pass(p, in, f, dy, c.convCase); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func convForward(p *Pool, in, f, dy *Tensor, c convCase) error {
	return Conv2DInto(p, dy, in, f, c.spec)
}

func BenchmarkConv2D(b *testing.B)        { benchConv(b, false, convForward) }
func BenchmarkConv2DStrided(b *testing.B) { benchConv(b, true, convForward) }

func BenchmarkConv2DBackFilter(b *testing.B) {
	for _, strided := range []bool{false, true} {
		benchConv(b, strided, func(p *Pool, in, f, dy *Tensor, c convCase) error {
			return Conv2DBackFilterInto(p, f, in, dy, c.kh, c.kw, c.spec)
		})
	}
}

func BenchmarkConv2DBackInput(b *testing.B) {
	for _, strided := range []bool{false, true} {
		benchConv(b, strided, func(p *Pool, in, f, dy *Tensor, c convCase) error {
			return Conv2DBackInputInto(p, in, f, dy, c.h, c.w, c.spec)
		})
	}
}

// BenchmarkMatMulIntraOp puts the two intra-op strategies side by
// side at a blocked-kernel size: serial baseline vs real parallel
// chunks on a shared worker pool. On a multi-core host the intraopN
// variants show measured (not modeled) speedup; run with -cpu 1,4 to
// see both. Throughput (SetBytes = 2·m·k·n) is the comparable metric.
func BenchmarkMatMulIntraOp(b *testing.B) {
	const s = 384
	rng := rand.New(rand.NewSource(1))
	a := RandNormal(rng, 0, 1, s, s)
	bb := RandNormal(rng, 0, 1, s, s)
	out := New(s, s)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("intraop%d", w), func(b *testing.B) {
			var p *Pool
			if w == 1 {
				p = NewPool(1)
			} else {
				ex := sched.New(w - 1)
				defer ex.Close()
				p = NewParallelPool(w, ex)
			}
			b.SetBytes(int64(2 * s * s * s))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := MatMulInto(p, out, a, bb, false, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
