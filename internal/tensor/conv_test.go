package tensor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sched"
)

// naiveConv2D is a reference convolution used to validate the kernel.
func naiveConv2D(in, f *Tensor, spec ConvSpec) *Tensor {
	n, h, w, cin := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	kh, kw, _, cout := f.Dim(0), f.Dim(1), f.Dim(2), f.Dim(3)
	oh := ConvOutSize(h, kh, spec.StrideH, spec.PadH)
	ow := ConvOutSize(w, kw, spec.StrideW, spec.PadW)
	out := New(n, oh, ow, cout)
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for co := 0; co < cout; co++ {
					var s float32
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy := oy*spec.StrideH - spec.PadH + ky
							ix := ox*spec.StrideW - spec.PadW + kx
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							for c := 0; c < cin; c++ {
								s += in.At(b, iy, ix, c) * f.At(ky, kx, c, co)
							}
						}
					}
					out.Set(s, b, oy, ox, co)
				}
			}
		}
	}
	return out
}

func TestConv2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewPool(2)
	cases := []struct {
		n, h, w, cin, kh, kw, cout int
		spec                       ConvSpec
	}{
		{1, 5, 5, 1, 3, 3, 2, ConvSpec{1, 1, 0, 0}},
		{2, 8, 8, 3, 3, 3, 4, ConvSpec{1, 1, 1, 1}},
		{1, 9, 9, 2, 3, 3, 3, ConvSpec{2, 2, 1, 1}},
		{2, 11, 11, 1, 5, 5, 2, ConvSpec{2, 2, 2, 2}},
		{1, 12, 12, 2, 4, 4, 2, ConvSpec{4, 4, 0, 0}},
	}
	for _, c := range cases {
		in := RandNormal(rng, 0, 1, c.n, c.h, c.w, c.cin)
		f := RandNormal(rng, 0, 1, c.kh, c.kw, c.cin, c.cout)
		got, err := Conv2D(p, in, f, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveConv2D(in, f, c.spec)
		if !AllClose(got, want, 1e-4, 1e-4) {
			t.Fatalf("conv mismatch %+v (max diff %g)", c, MaxAbsDiff(got, want))
		}
	}
}

// The three direct loop nests the lowered passes replaced, kept as the
// bit-equality oracles: they define the per-element accumulation order
// the im2col+GEMM path must reproduce. Products are float32(a*b) so the
// compiler cannot fuse them at any GOAMD64 level.

func conv2DDirect(out, in, filter *Tensor, spec ConvSpec) {
	n, h, w, cin := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	kh, kw, cout := filter.shape[0], filter.shape[1], filter.shape[3]
	oh, ow := out.shape[1], out.shape[2]
	id, fd, od := in.data, filter.data, out.data
	for r := 0; r < n*oh; r++ {
		b, oy := r/oh, r%oh
		for ox := 0; ox < ow; ox++ {
			obase := ((b*oh+oy)*ow + ox) * cout
			acc := od[obase : obase+cout]
			clear(acc)
			iy0 := oy*spec.StrideH - spec.PadH
			ix0 := ox*spec.StrideW - spec.PadW
			for ky := 0; ky < kh; ky++ {
				iy := iy0 + ky
				if iy < 0 || iy >= h {
					continue
				}
				for kx := 0; kx < kw; kx++ {
					ix := ix0 + kx
					if ix < 0 || ix >= w {
						continue
					}
					ibase := ((b*h+iy)*w + ix) * cin
					fbase := (ky*kw + kx) * cin * cout
					for c := 0; c < cin; c++ {
						v := id[ibase+c]
						frow := fd[fbase+c*cout : fbase+(c+1)*cout]
						for co := 0; co < cout; co++ {
							acc[co] += float32(v * frow[co])
						}
					}
				}
			}
		}
	}
}

func conv2DBackFilterDirect(out, in, gradOut *Tensor, kh, kw int, spec ConvSpec) {
	n, h, w, cin := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	oh, ow, cout := gradOut.shape[1], gradOut.shape[2], gradOut.shape[3]
	out.Zero()
	id, gd, od := in.data, gradOut.data, out.data
	for ky := 0; ky < kh; ky++ {
		for kx := 0; kx < kw; kx++ {
			fbase := (ky*kw + kx) * cin * cout
			for b := 0; b < n; b++ {
				for oy := 0; oy < oh; oy++ {
					iy := oy*spec.StrideH - spec.PadH + ky
					if iy < 0 || iy >= h {
						continue
					}
					for ox := 0; ox < ow; ox++ {
						ix := ox*spec.StrideW - spec.PadW + kx
						if ix < 0 || ix >= w {
							continue
						}
						ibase := ((b*h+iy)*w + ix) * cin
						gbase := ((b*oh+oy)*ow + ox) * cout
						grow := gd[gbase : gbase+cout]
						for c := 0; c < cin; c++ {
							v := id[ibase+c]
							frow := od[fbase+c*cout : fbase+(c+1)*cout]
							for co := 0; co < cout; co++ {
								frow[co] += float32(v * grow[co])
							}
						}
					}
				}
			}
		}
	}
}

func conv2DBackInputDirect(out, filter, gradOut *Tensor, spec ConvSpec) {
	kh, kw, cin, cout := filter.shape[0], filter.shape[1], filter.shape[2], filter.shape[3]
	n, oh, ow := gradOut.shape[0], gradOut.shape[1], gradOut.shape[2]
	h, w := out.shape[1], out.shape[2]
	out.Zero()
	fd, gd, od := filter.data, gradOut.data, out.data
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*spec.StrideH - spec.PadH
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*spec.StrideW - spec.PadW
				gbase := ((b*oh+oy)*ow + ox) * cout
				grow := gd[gbase : gbase+cout]
				for ky := 0; ky < kh; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < kw; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= w {
							continue
						}
						ibase := ((b*h+iy)*w + ix) * cin
						fbase := (ky*kw + kx) * cin * cout
						for c := 0; c < cin; c++ {
							frow := fd[fbase+c*cout : fbase+(c+1)*cout]
							var s float32
							for co := 0; co < cout; co++ {
								s += float32(frow[co] * grow[co])
							}
							od[ibase+c] += s
						}
					}
				}
			}
		}
	}
}

// convCase is one convolution geometry of the lowering tests and the
// fuzz seed corpus.
type convCase struct {
	n, h, w, cin, kh, kw, cout int
	spec                       ConvSpec
}

// checkConvLowering runs the three lowered passes into dirty
// destinations on p and requires every output bit to equal the direct
// loops'. Inputs are finite, which is the contract's precondition.
func checkConvLowering(t testing.TB, p *Pool, c convCase, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	oh := ConvOutSize(c.h, c.kh, c.spec.StrideH, c.spec.PadH)
	ow := ConvOutSize(c.w, c.kw, c.spec.StrideW, c.spec.PadW)
	in := RandNormal(rng, 0, 1, c.n, c.h, c.w, c.cin)
	f := RandNormal(rng, 0, 1, c.kh, c.kw, c.cin, c.cout)
	dy := RandNormal(rng, 0, 1, c.n, oh, ow, c.cout)
	equal := func(pass string, got, want *Tensor) {
		t.Helper()
		if i, ok := sameBits(got.data, want.data); !ok {
			t.Fatalf("%s %+v: element %d is %g (%#x), the direct loop gives %g (%#x)", pass, c, i,
				got.data[i], math.Float32bits(got.data[i]), want.data[i], math.Float32bits(want.data[i]))
		}
	}

	got, want := Full(99, c.n, oh, ow, c.cout), Full(-7, c.n, oh, ow, c.cout)
	if err := Conv2DInto(p, got, in, f, c.spec); err != nil {
		t.Fatal(err)
	}
	conv2DDirect(want, in, f, c.spec)
	equal("forward", got, want)

	got, want = Full(99, c.kh, c.kw, c.cin, c.cout), Full(-7, c.kh, c.kw, c.cin, c.cout)
	if err := Conv2DBackFilterInto(p, got, in, dy, c.kh, c.kw, c.spec); err != nil {
		t.Fatal(err)
	}
	conv2DBackFilterDirect(want, in, dy, c.kh, c.kw, c.spec)
	equal("back-filter", got, want)

	got, want = Full(99, c.n, c.h, c.w, c.cin), Full(-7, c.n, c.h, c.w, c.cin)
	if err := Conv2DBackInputInto(p, got, f, dy, c.h, c.w, c.spec); err != nil {
		t.Fatal(err)
	}
	conv2DBackInputDirect(want, f, dy, c.spec)
	equal("back-input", got, want)
}

// convLoweringCases covers strides {1,2,4}, PadH ≠ PadW, negative
// (cropping) padding, non-square images and filters, pointwise
// convolutions (view and gathered), GEMMs of one tile and of several,
// K spanning several reduction slabs, and patch matrices walked in
// several row blocks whose boundaries fall inside batch entries.
var convLoweringCases = []convCase{
	{1, 5, 5, 1, 3, 3, 2, ConvSpec{1, 1, 0, 0}},
	{2, 9, 9, 16, 3, 3, 16, ConvSpec{1, 1, 1, 1}},
	{1, 7, 5, 8, 3, 3, 32, ConvSpec{1, 1, 0, 0}},
	{1, 6, 6, 24, 5, 5, 12, ConvSpec{1, 1, 2, 2}},
	{2, 11, 8, 3, 3, 5, 7, ConvSpec{2, 1, 1, 2}},
	{2, 13, 10, 2, 4, 3, 5, ConvSpec{1, 2, 0, 1}},
	{1, 12, 12, 2, 4, 4, 2, ConvSpec{4, 4, 0, 0}},
	{2, 17, 15, 3, 7, 7, 24, ConvSpec{4, 2, 3, 1}},
	{2, 16, 16, 3, 11, 11, 24, ConvSpec{4, 4, 2, 2}},
	{2, 6, 5, 8, 1, 1, 16, ConvSpec{1, 1, 0, 0}},
	{2, 6, 5, 8, 1, 1, 16, ConvSpec{2, 2, 0, 0}},
	{2, 6, 5, 8, 1, 1, 16, ConvSpec{1, 1, 1, 0}},
	{2, 24, 24, 40, 1, 1, 40, ConvSpec{1, 1, 0, 0}},
	{2, 12, 12, 32, 3, 3, 300, ConvSpec{1, 1, 1, 1}},
	{3, 20, 20, 64, 3, 3, 24, ConvSpec{1, 1, 1, 1}},
	{3, 9, 9, 700, 3, 3, 4, ConvSpec{2, 2, 1, 1}},
	{2, 3, 3, 2, 5, 5, 3, ConvSpec{1, 1, 0, 0}},
	{2, 9, 8, 3, 3, 3, 4, ConvSpec{2, 1, -1, -2}},
	{1, 1, 2, 2, 1, 1, 5, ConvSpec{1, 4, 0, 2}}, // a filter row wholly in the padding (found by the fuzzer)
}

func TestConvLoweringMatchesDirectLoops(t *testing.T) {
	ex := sched.New(3)
	defer ex.Close()
	pools := map[int]*Pool{1: NewPool(1), 4: NewParallelPool(4, ex)}
	blocked := 0
	for i, c := range convLoweringCases {
		g := newPatches(c.n, c.cin, c.kh, c.kw,
			ConvOutSize(c.h, c.kh, c.spec.StrideH, c.spec.PadH), ConvOutSize(c.w, c.kw, c.spec.StrideW, c.spec.PadW), c.spec)
		if g.block < g.rows && (g.oh*g.ow)%g.block != 0 {
			blocked++
		}
		for _, p := range pools {
			checkConvLowering(t, p, c, int64(100+i))
		}
	}
	if blocked < 2 {
		t.Fatalf("only %d cases walk the patch matrix in row blocks that straddle batch entries", blocked)
	}
}

// FuzzConvLowering drives the lowering with arbitrary small geometries:
// it must never panic, must reject what it cannot compute with an
// error, and on the finite data checkConvLowering draws must match the
// direct loops bit for bit.
func FuzzConvLowering(f *testing.F) {
	// decode maps fuzz bytes onto small geometries; the seeds are the
	// lowering cases it can express exactly.
	decode := func(n, h, w, cin, kh, kw, cout, sh, sw, ph, pw uint8) convCase {
		return convCase{int(n % 4), int(h % 20), int(w % 20), int(cin % 25), int(kh % 12), int(kw % 12), int(cout % 33),
			ConvSpec{int(sh % 6), int(sw % 6), int(ph%7) - 2, int(pw%7) - 2}.check()}
	}
	for _, c := range convLoweringCases {
		args := []uint8{uint8(c.n), uint8(c.h), uint8(c.w), uint8(c.cin), uint8(c.kh), uint8(c.kw), uint8(c.cout),
			uint8(c.spec.StrideH), uint8(c.spec.StrideW), uint8(c.spec.PadH + 2), uint8(c.spec.PadW + 2)}
		if decode(args[0], args[1], args[2], args[3], args[4], args[5], args[6], args[7], args[8], args[9], args[10]) == c {
			f.Add(args[0], args[1], args[2], args[3], args[4], args[5], args[6], args[7], args[8], args[9], args[10])
		}
	}
	p := NewPool(1)
	f.Fuzz(func(t *testing.T, n, h, w, cin, kh, kw, cout, sh, sw, ph, pw uint8) {
		checkConvLowering(t, p, decode(n, h, w, cin, kh, kw, cout, sh, sw, ph, pw), 1)
	})
}

// TestConv2D1x1MatMulPath checks the pointwise-convolution fast path.
func TestConv2D1x1MatMulPath(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := NewPool(1)
	in := RandNormal(rng, 0, 1, 2, 6, 6, 8)
	f := RandNormal(rng, 0, 1, 1, 1, 8, 16)
	got, err := Conv2D(p, in, f, ConvSpec{1, 1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := naiveConv2D(in, f, ConvSpec{1, 1, 0, 0})
	if !AllClose(got, want, 1e-4, 1e-4) {
		t.Fatalf("1x1 path mismatch (max diff %g)", MaxAbsDiff(got, want))
	}
}

// TestConvIntoVariantsOverwriteDirtyDestinations feeds dirty buffers
// (as arena slots are) to every Into kernel and checks full overwrite.
func TestConvIntoVariantsOverwriteDirtyDestinations(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := NewPool(1)
	in := RandNormal(rng, 0, 1, 1, 6, 6, 2)
	f := RandNormal(rng, 0, 1, 3, 3, 2, 3)
	spec := ConvSpec{1, 1, 1, 1}
	out, err := Conv2D(p, in, f, spec)
	if err != nil {
		t.Fatal(err)
	}
	dirty := Full(99, out.Shape()...)
	if err := Conv2DInto(p, dirty, in, f, spec); err != nil {
		t.Fatal(err)
	}
	if !AllClose(dirty, out, 0, 0) {
		t.Fatal("Conv2DInto must fully overwrite a dirty destination")
	}

	// The kernels with no allocating form: a zeroed and a dirty
	// destination must end up the same.
	grad := RandNormal(rng, 0, 1, out.Shape()...)
	for _, c := range []struct {
		name  string
		shape []int
		run   func(out *Tensor) error
	}{
		{"Conv2DBackFilterInto", []int{3, 3, 2, 3}, func(o *Tensor) error { return Conv2DBackFilterInto(p, o, in, grad, 3, 3, spec) }},
		{"Conv2DBackInputInto", []int{1, 6, 6, 2}, func(o *Tensor) error { return Conv2DBackInputInto(p, o, f, grad, 6, 6, spec) }},
		{"MaxPoolInto", []int{1, 3, 3, 2}, func(o *Tensor) error { return MaxPoolInto(p, o, in, 2, 2, 0) }},
		{"AvgPoolInto", []int{1, 3, 3, 2}, func(o *Tensor) error { return AvgPoolInto(p, o, in, 2, 2, 0) }},
	} {
		clean, dirty := New(c.shape...), Full(99, c.shape...)
		if err := c.run(clean); err != nil {
			t.Fatal(err)
		}
		if err := c.run(dirty); err != nil {
			t.Fatal(err)
		}
		if !AllClose(dirty, clean, 0, 0) {
			t.Fatalf("%s must fully overwrite a dirty destination", c.name)
		}
	}
}

func TestConv2DChannelMismatch(t *testing.T) {
	p := NewPool(1)
	if _, err := Conv2D(p, New(1, 4, 4, 3), New(3, 3, 2, 4), ConvSpec{}); err == nil {
		t.Fatal("expected channel mismatch error")
	}
}

// Gradient checks: compare BackFilter/BackInput against finite
// differences of a scalar loss L = Σ conv(in, f).
func TestConv2DGradientsFiniteDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewPool(1)
	spec := ConvSpec{2, 2, 1, 1}
	in := RandNormal(rng, 0, 0.5, 1, 6, 6, 2)
	f := RandNormal(rng, 0, 0.5, 3, 3, 2, 2)
	out, err := Conv2D(p, in, f, spec)
	if err != nil {
		t.Fatal(err)
	}
	gradOut := Ones(out.Shape()...)

	gf, gi := New(f.Shape()...), New(in.Shape()...)
	if err := Conv2DBackFilterInto(p, gf, in, gradOut, 3, 3, spec); err != nil {
		t.Fatal(err)
	}
	if err := Conv2DBackInputInto(p, gi, f, gradOut, 6, 6, spec); err != nil {
		t.Fatal(err)
	}

	loss := func() float64 {
		o, _ := Conv2D(p, in, f, spec)
		var s float64
		for _, v := range o.Data() {
			s += float64(v)
		}
		return s
	}
	const eps = 1e-2
	// Spot-check a handful of coordinates in each gradient.
	for _, i := range []int{0, 3, 7, len(f.Data()) - 1} {
		orig := f.Data()[i]
		f.Data()[i] = orig + eps
		lp := loss()
		f.Data()[i] = orig - eps
		lm := loss()
		f.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if d := num - float64(gf.Data()[i]); d > 1e-2 || d < -1e-2 {
			t.Fatalf("filter grad[%d]: analytic %g numeric %g", i, gf.Data()[i], num)
		}
	}
	for _, i := range []int{0, 5, 20, len(in.Data()) - 1} {
		orig := in.Data()[i]
		in.Data()[i] = orig + eps
		lp := loss()
		in.Data()[i] = orig - eps
		lm := loss()
		in.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if d := num - float64(gi.Data()[i]); d > 1e-2 || d < -1e-2 {
			t.Fatalf("input grad[%d]: analytic %g numeric %g", i, gi.Data()[i], num)
		}
	}
}

func TestMaxPoolKnown(t *testing.T) {
	p := NewPool(1)
	in := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4, 1)
	out := New(1, 2, 2, 1)
	if err := MaxPoolInto(p, out, in, 2, 2, 0); err != nil {
		t.Fatal(err)
	}
	want := []float32{6, 8, 14, 16}
	for i := range want {
		if out.Data()[i] != want[i] {
			t.Fatalf("MaxPool = %v want %v", out.Data(), want)
		}
	}
}

func TestMaxPoolGradRoutesToArgmax(t *testing.T) {
	p := NewPool(1)
	in := FromSlice([]float32{
		1, 2,
		3, 4,
	}, 1, 2, 2, 1)
	gradOut := FromSlice([]float32{10}, 1, 1, 1, 1)
	g := Full(99, in.Shape()...)
	if err := MaxPoolGradInto(p, g, in, gradOut, 2, 2, 0); err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 0, 0, 10}
	for i := range want {
		if g.Data()[i] != want[i] {
			t.Fatalf("MaxPoolGrad = %v want %v", g.Data(), want)
		}
	}
}

func TestAvgPoolKnownAndGrad(t *testing.T) {
	p := NewPool(1)
	in := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4, 1)
	out := New(1, 2, 2, 1)
	if err := AvgPoolInto(p, out, in, 2, 2, 0); err != nil {
		t.Fatal(err)
	}
	want := []float32{3.5, 5.5, 11.5, 13.5}
	for i := range want {
		if out.Data()[i] != want[i] {
			t.Fatalf("AvgPool = %v want %v", out.Data(), want)
		}
	}
	gradOut := FromSlice([]float32{4, 4, 4, 4}, 1, 2, 2, 1)
	g := Full(99, in.Shape()...)
	if err := AvgPoolGradInto(p, g, gradOut, 2, 2, 0); err != nil {
		t.Fatal(err)
	}
	for _, v := range g.Data() {
		if v != 1 {
			t.Fatalf("AvgPoolGrad should spread 4 over 4 cells: %v", g.Data())
		}
	}
}

func TestPoolingWithPadding(t *testing.T) {
	p := NewPool(1)
	rng := rand.New(rand.NewSource(6))
	in := RandNormal(rng, 0, 1, 2, 7, 7, 3)
	// The padded output is (2,4,4,3): the kernels refuse any other
	// destination.
	if err := MaxPoolInto(p, New(2, 4, 4, 3), in, 3, 2, 1); err != nil {
		t.Fatalf("padded maxpool: %v", err)
	}
	if err := AvgPoolInto(p, New(2, 4, 4, 3), in, 3, 2, 1); err != nil {
		t.Fatalf("padded avgpool: %v", err)
	}
	if MaxPoolInto(p, New(2, 3, 3, 3), in, 3, 2, 1) == nil || AvgPoolInto(p, New(2, 3, 3, 3), in, 3, 2, 1) == nil {
		t.Fatal("padded pooling accepted an unpadded destination shape")
	}
}

func TestConvOutSize(t *testing.T) {
	if ConvOutSize(224, 11, 4, 2) != 55 {
		t.Fatal("AlexNet conv1 output size should be 55")
	}
	if ConvOutSize(4, 2, 2, 0) != 2 {
		t.Fatal("basic out size")
	}
	if SamePad(3) != 1 || SamePad(5) != 2 || SamePad(7) != 3 {
		t.Fatal("SamePad")
	}
}
