package tensor

import "fmt"

// ConvSpec describes a 2-D convolution in NHWC layout.
type ConvSpec struct {
	StrideH, StrideW int
	PadH, PadW       int // symmetric zero padding applied to each side
}

// ConvOutSize returns the output spatial size for an input of size in,
// filter size k, stride s and padding p on each side.
func ConvOutSize(in, k, s, p int) int {
	o := (in+2*p-k)/s + 1
	if o < 0 {
		o = 0
	}
	return o
}

// SamePad returns the padding that keeps output = ceil(in/stride) for
// odd filter sizes (TensorFlow "SAME" with symmetric padding).
func SamePad(k int) int { return (k - 1) / 2 }

func (c ConvSpec) check() ConvSpec {
	if c.StrideH < 1 {
		c.StrideH = 1
	}
	if c.StrideW < 1 {
		c.StrideW = 1
	}
	return c
}

// Conv2D computes a 2-D convolution: input (N,H,W,Cin) with filter
// (KH,KW,Cin,Cout) producing (N,OH,OW,Cout). See Conv2DInto for the
// lowering.
func Conv2D(p *Pool, in, filter *Tensor, spec ConvSpec) (*Tensor, error) {
	spec = spec.check()
	if err := conv2DCheck(in, filter); err != nil {
		return nil, err
	}
	oh := ConvOutSize(in.shape[1], filter.shape[0], spec.StrideH, spec.PadH)
	ow := ConvOutSize(in.shape[2], filter.shape[1], spec.StrideW, spec.PadW)
	out := New(in.shape[0], oh, ow, filter.shape[3])
	conv2DInto(p, out, in, filter, spec)
	return out, nil
}

// Conv2DInto computes the convolution into out, which must have the
// inferred output shape. out may hold arbitrary data; it is fully
// overwritten and must not alias in or filter.
//
// All three convolution passes lower to one matrix product over the
// patch matrix col — one row per output position, holding its receptive
// field in (ky, kx, c) order — and run on the matmul kernels:
//
//	forward      out = col · W          (W viewed as KH·KW·Cin × Cout)
//	back-filter  dW  = colᵀ · dY
//	back-input   dX  = col2im(dY · Wᵀ)
//
// col is gathered in row blocks bounded by the im2col scratch budget; a
// 1×1 unit-stride unpadded convolution skips the gather because its
// patch matrix is the input itself. Per output element the products
// meet in the order a direct loop nest visits them — (ky, kx, c)
// ascending forward, output positions ascending for dW, Cout ascending
// then (position, ky, kx) ascending for dX — and a padded tap adds a
// zero where the loop nest would skip, so on finite data the results
// are those loops' bit for bit (conv_test.go keeps them as oracles).
func Conv2DInto(p *Pool, out, in, filter *Tensor, spec ConvSpec) error {
	spec = spec.check()
	if err := conv2DCheck(in, filter); err != nil {
		return err
	}
	oh := ConvOutSize(in.shape[1], filter.shape[0], spec.StrideH, spec.PadH)
	ow := ConvOutSize(in.shape[2], filter.shape[1], spec.StrideW, spec.PadW)
	want := []int{in.shape[0], oh, ow, filter.shape[3]}
	if !SameShape(out.shape, want) {
		return fmt.Errorf("tensor: Conv2DInto destination %v, want %v", out.shape, want)
	}
	conv2DInto(p, out, in, filter, spec)
	return nil
}

func conv2DCheck(in, filter *Tensor) error {
	if in.Rank() != 4 || filter.Rank() != 4 {
		return fmt.Errorf("tensor: Conv2D requires NHWC input and KHKWCinCout filter, got %v and %v", in.shape, filter.shape)
	}
	if in.shape[3] != filter.shape[2] {
		return fmt.Errorf("tensor: Conv2D channel mismatch: input %v filter %v", in.shape, filter.shape)
	}
	return nil
}

// convGradCheck validates gradOut against the (n,h,w) image of a
// backward pass: it must be the rank-4 output gradient of a (kh,kw)
// convolution over that image. Shapes are compared as scalars; slices
// are built only to word an error, so a passing call allocates nothing.
func convGradCheck(name string, n, h, w int, gradOut *Tensor, kh, kw int, spec ConvSpec) error {
	oh, ow := ConvOutSize(h, kh, spec.StrideH, spec.PadH), ConvOutSize(w, kw, spec.StrideW, spec.PadW)
	if g := gradOut.shape; len(g) != 4 || g[0] != n || g[1] != oh || g[2] != ow {
		return fmt.Errorf("tensor: %s gradOut %v, want [%d %d %d Cout] for a %dx%d filter over a %dx%dx%d image", name, g, n, oh, ow, kh, kw, n, h, w)
	}
	return nil
}

// im2colScratchCap bounds the patch-matrix scratch to about 1 MB of
// float32s; larger outputs are processed in row blocks.
const im2colScratchCap = 1 << 18

// patches is the patch-matrix view of one convolution: rows output
// positions by kk = KH·KW·Cin taps, walked block rows at a time.
type patches struct {
	kh, kw, oh, ow  int
	spec            ConvSpec
	rows, kk, block int
	pointwise       bool // 1×1, unit stride, unpadded: col is the image
}

func newPatches(n, cin, kh, kw, oh, ow int, spec ConvSpec) patches {
	g := patches{kh: kh, kw: kw, oh: oh, ow: ow, spec: spec, rows: n * oh * ow, kk: kh * kw * cin}
	g.pointwise = kh == 1 && kw == 1 && spec == ConvSpec{StrideH: 1, StrideW: 1}
	g.block = g.rows
	if !g.pointwise {
		g.block = max(1, min(g.rows, im2colScratchCap/max(g.kk, 1)))
	}
	return g
}

// buf returns storage for patch rows [r0,r1): the rows of image itself
// when pointwise, else the pool's im2col scratch.
func (g patches) buf(p *Pool, image *Tensor, r0, r1 int) []float32 {
	if g.pointwise {
		return image.data[r0*g.kk : r1*g.kk]
	}
	return p.scratchBuf(scratchIm2col, (r1-r0)*g.kk)
}

func conv2DInto(p *Pool, out, in, filter *Tensor, spec ConvSpec) {
	cin, cout := filter.shape[2], filter.shape[3]
	g := newPatches(in.shape[0], cin, filter.shape[0], filter.shape[1], out.shape[1], out.shape[2], spec)
	for r0 := 0; r0 < g.rows; r0 += g.block {
		r1 := min(g.rows, r0+g.block)
		col := g.buf(p, in, r0, r1)
		g.im2col(p, col, in, r0, r1)
		matmulInto(p, out.data[r0*cout:r1*cout], col, filter.data, r1-r0, cout, g.kk, g.kk, cout, false, false, false)
	}
}

// im2col fills col (row-major (r1-r0)×kk) with the receptive fields of
// output positions [r0, r1). Out-of-image taps are written as zeros, so
// every row is fully overwritten.
func (g patches) im2col(p *Pool, col []float32, in *Tensor, r0, r1 int) {
	if g.pointwise {
		return
	}
	h, w, cin := in.shape[1], in.shape[2], in.shape[3]
	kh, kw, kk := g.kh, g.kw, g.kk
	id := in.data
	p.For(r1-r0, 16, func(lo, hi int) {
		for rr := lo; rr < hi; rr++ {
			r := r0 + rr
			ox := r % g.ow
			oy := (r / g.ow) % g.oh
			b := r / (g.ow * g.oh)
			row := col[rr*kk : (rr+1)*kk]
			iy0 := oy*g.spec.StrideH - g.spec.PadH
			ix0 := ox*g.spec.StrideW - g.spec.PadW
			pos := 0
			for ky := 0; ky < kh; ky++ {
				iy := iy0 + ky
				if iy < 0 || iy >= h {
					clear(row[pos : pos+kw*cin])
					pos += kw * cin
					continue
				}
				// Taps [lo,hi) of this filter row are in the image, and
				// adjacent pixels are adjacent in NHWC: one copy.
				lo := min(kw, max(0, -ix0))
				hi := max(lo, min(kw, w-ix0))
				seg := row[pos : pos+kw*cin]
				clear(seg[:lo*cin])
				if lo < hi {
					copy(seg[lo*cin:hi*cin], id[((b*h+iy)*w+ix0+lo)*cin:])
				}
				clear(seg[hi*cin:])
				pos += kw * cin
			}
		}
	})
}

// col2im adds patch-gradient rows [r0,r1) (col, row-major (r1-r0)×kk)
// into the image gradient out: the transpose of im2col. It runs as a
// gather over image rows — each chunk owns whole rows of out, so chunks
// never share a destination — and visits the patches touching a pixel
// in ascending (position, ky, kx) order, the order a scatter over
// positions would add them in.
func (g patches) col2im(p *Pool, out *Tensor, col []float32, r0, r1 int) {
	if g.pointwise {
		return
	}
	h, w, cin := out.shape[1], out.shape[2], out.shape[3]
	sh, sw, kk := g.spec.StrideH, g.spec.StrideW, g.kk
	od := out.data
	// Image rows of the batch entries the block touches.
	y0, y1 := r0/(g.oh*g.ow)*h, ((r1-1)/(g.oh*g.ow)+1)*h
	grain := 1 + 16384/(g.ow*g.kw*cin*(1+g.kh/sh)+1)
	p.For(y1-y0, grain, func(lo, hi int) {
		for y := y0 + lo; y < y0+hi; y++ {
			b, top := y/h, y%h+g.spec.PadH
			if top < 0 {
				continue // negative padding crops this row away
			}
			// Output rows oy with a tap on image row iy = top − pad:
			// oy·sh + ky = top, 0 ≤ ky < kh.
			oyLo := max(0, (top-g.kh+sh)/sh)
			oyHi := min(g.oh-1, top/sh)
			for oy := oyLo; oy <= oyHi; oy++ {
				ky := top - oy*sh
				rbase := (b*g.oh + oy) * g.ow
				for ox := max(0, r0-rbase); ox < min(g.ow, r1-rbase); ox++ {
					// The in-image taps [lo,hi) of filter row ky are one
					// run in the patch and in the image row alike.
					ix0 := ox*sw - g.spec.PadW
					lo := min(g.kw, max(0, -ix0))
					hi := max(lo, min(g.kw, w-ix0))
					if lo == hi {
						continue
					}
					src := col[(rbase+ox-r0)*kk+(ky*g.kw+lo)*cin:]
					dst := od[(y*w+ix0+lo)*cin : (y*w+ix0+hi)*cin]
					for t := range dst {
						dst[t] += src[t]
					}
				}
			}
		}
	})
}

// Conv2DBackFilterInto writes the gradient of Conv2D with respect to
// the filter, colᵀ·dY for input (N,H,W,Cin) and gradOut (N,OH,OW,Cout),
// into out, which must have shape (kh, kw, Cin, Cout), is fully
// overwritten and must not alias in or gradOut.
func Conv2DBackFilterInto(p *Pool, out, in, gradOut *Tensor, kh, kw int, spec ConvSpec) error {
	spec = spec.check()
	if in.Rank() != 4 {
		return fmt.Errorf("tensor: Conv2DBackFilter requires an NHWC input, got %v", in.shape)
	}
	if err := convGradCheck("Conv2DBackFilter", in.shape[0], in.shape[1], in.shape[2], gradOut, kh, kw, spec); err != nil {
		return err
	}
	cin, cout := in.shape[3], gradOut.shape[3]
	if !SameShape(out.shape, []int{kh, kw, cin, cout}) {
		return fmt.Errorf("tensor: Conv2DBackFilterInto destination %v, want %v", out.shape, []int{kh, kw, cin, cout})
	}
	g := newPatches(in.shape[0], cin, kh, kw, gradOut.shape[1], gradOut.shape[2], spec)
	if g.rows == 0 {
		out.Zero()
	}
	// The reduction runs over output positions, so the row blocks are
	// slabs of it: every block after the first accumulates.
	for r0 := 0; r0 < g.rows; r0 += g.block {
		r1 := min(g.rows, r0+g.block)
		col := g.buf(p, in, r0, r1)
		g.im2col(p, col, in, r0, r1)
		matmulInto(p, out.data, col, gradOut.data[r0*cout:r1*cout], g.kk, cout, r1-r0, g.kk, cout, true, false, r0 > 0)
	}
	return nil
}

// Conv2DBackInputInto writes the gradient of Conv2D with respect to
// the input, col2im(dY·Wᵀ) for filter (KH,KW,Cin,Cout) and gradOut
// (N,OH,OW,Cout), into out, which must have shape (N, h, w, Cin), is
// fully overwritten and must not alias filter or gradOut.
func Conv2DBackInputInto(p *Pool, out, filter, gradOut *Tensor, h, w int, spec ConvSpec) error {
	spec = spec.check()
	if filter.Rank() != 4 || gradOut.Rank() != 4 || filter.shape[3] != gradOut.shape[3] {
		return fmt.Errorf("tensor: Conv2DBackInput channel mismatch filter %v gradOut %v", filter.shape, gradOut.shape)
	}
	kh, kw, cin, cout := filter.shape[0], filter.shape[1], filter.shape[2], filter.shape[3]
	n := gradOut.shape[0]
	if err := convGradCheck("Conv2DBackInput", n, h, w, gradOut, kh, kw, spec); err != nil {
		return err
	}
	if !SameShape(out.shape, []int{n, h, w, cin}) {
		return fmt.Errorf("tensor: Conv2DBackInputInto destination %v, want %v", out.shape, []int{n, h, w, cin})
	}
	g := newPatches(n, cin, kh, kw, gradOut.shape[1], gradOut.shape[2], spec)
	if !g.pointwise {
		out.Zero()
	}
	for r0 := 0; r0 < g.rows; r0 += g.block {
		r1 := min(g.rows, r0+g.block)
		dcol := g.buf(p, out, r0, r1)
		matmulInto(p, dcol, gradOut.data[r0*cout:r1*cout], filter.data, r1-r0, g.kk, cout, cout, cout, false, true, false)
		g.col2im(p, out, dcol, r0, r1)
	}
	return nil
}

// poolOutCheck validates a pooling destination against the inferred
// output shape.
func poolOutCheck(name string, out, in *Tensor, k, s, pad int) error {
	if in.Rank() != 4 {
		return fmt.Errorf("tensor: %s requires NHWC input, got %v", name, in.shape)
	}
	want := []int{in.shape[0], ConvOutSize(in.shape[1], k, s, pad), ConvOutSize(in.shape[2], k, s, pad), in.shape[3]}
	if !SameShape(out.shape, want) {
		return fmt.Errorf("tensor: %s destination %v, want %v", name, out.shape, want)
	}
	return nil
}

// MaxPoolInto computes max pooling over (N,H,W,C) with window k and
// stride s (symmetric padding pad, padded cells treated as -inf) into
// out, fully overwriting it.
func MaxPoolInto(p *Pool, out, in *Tensor, k, s, pad int) error {
	if err := poolOutCheck("MaxPoolInto", out, in, k, s, pad); err != nil {
		return err
	}
	n, h, w, c := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	oh, ow := out.shape[1], out.shape[2]
	id, od := in.data, out.data
	rows := n * oh
	p.For(rows, 4, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			b := r / oh
			oy := r % oh
			for ox := 0; ox < ow; ox++ {
				obase := ((b*oh+oy)*ow + ox) * c
				for ch := 0; ch < c; ch++ {
					best := float32(negInf)
					for ky := 0; ky < k; ky++ {
						iy := oy*s - pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*s - pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							v := id[((b*h+iy)*w+ix)*c+ch]
							if v > best {
								best = v
							}
						}
					}
					od[obase+ch] = best
				}
			}
		}
	})
	return nil
}

const negInf = float32(-3.4e38)

// MaxPoolGradInto routes gradOut back to the argmax input cell of each
// pooling window (ties go to the first maximum, matching MaxPoolInto),
// accumulating into out after zeroing it; out must have the input's
// shape.
func MaxPoolGradInto(p *Pool, out, in, gradOut *Tensor, k, s, pad int) error {
	if !SameShape(out.shape, in.shape) {
		return fmt.Errorf("tensor: MaxPoolGradInto destination %v, want %v", out.shape, in.shape)
	}
	if err := poolOutCheck("MaxPoolGradInto", gradOut, in, k, s, pad); err != nil {
		return err
	}
	n, h, w, c := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	oh, ow := gradOut.shape[1], gradOut.shape[2]
	out.Zero()
	id, gd, od := in.data, gradOut.data, out.data
	// Pooling windows can overlap when s < k, so parallelize over batch
	// entries only (disjoint input regions).
	p.For(n, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					gbase := ((b*oh+oy)*ow + ox) * c
					for ch := 0; ch < c; ch++ {
						best := float32(negInf)
						bi := -1
						for ky := 0; ky < k; ky++ {
							iy := oy*s - pad + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < k; kx++ {
								ix := ox*s - pad + kx
								if ix < 0 || ix >= w {
									continue
								}
								off := ((b*h+iy)*w+ix)*c + ch
								if id[off] > best {
									best = id[off]
									bi = off
								}
							}
						}
						if bi >= 0 {
							od[bi] += gd[gbase+ch]
						}
					}
				}
			}
		}
	})
	return nil
}

// AvgPoolInto computes average pooling over valid (unpadded) cells into
// out after zeroing it.
func AvgPoolInto(p *Pool, out, in *Tensor, k, s, pad int) error {
	if err := poolOutCheck("AvgPoolInto", out, in, k, s, pad); err != nil {
		return err
	}
	n, h, w, c := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	oh, ow := out.shape[1], out.shape[2]
	out.Zero()
	id, od := in.data, out.data
	rows := n * oh
	p.For(rows, 4, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			b := r / oh
			oy := r % oh
			for ox := 0; ox < ow; ox++ {
				obase := ((b*oh+oy)*ow + ox) * c
				var cnt float32
				// Count once per window; same for all channels.
				for ky := 0; ky < k; ky++ {
					iy := oy*s - pad + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < k; kx++ {
						ix := ox*s - pad + kx
						if ix >= 0 && ix < w {
							cnt++
						}
					}
				}
				if cnt == 0 {
					continue
				}
				for ky := 0; ky < k; ky++ {
					iy := oy*s - pad + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < k; kx++ {
						ix := ox*s - pad + kx
						if ix < 0 || ix >= w {
							continue
						}
						ibase := ((b*h+iy)*w + ix) * c
						for ch := 0; ch < c; ch++ {
							od[obase+ch] += id[ibase+ch]
						}
					}
				}
				inv := 1 / cnt
				for ch := 0; ch < c; ch++ {
					od[obase+ch] *= inv
				}
			}
		}
	})
	return nil
}

// AvgPoolGradInto distributes gradOut uniformly over each window's
// valid input cells, accumulating into out (whose shape is the original
// input shape) after zeroing it.
func AvgPoolGradInto(p *Pool, out, gradOut *Tensor, k, s, pad int) error {
	if out.Rank() != 4 || gradOut.Rank() != 4 {
		return fmt.Errorf("tensor: AvgPoolGradInto wants NHWC tensors, got %v and %v", out.shape, gradOut.shape)
	}
	if err := poolOutCheck("AvgPoolGradInto", gradOut, out, k, s, pad); err != nil {
		return err
	}
	n, h, w, c := out.shape[0], out.shape[1], out.shape[2], out.shape[3]
	oh, ow := gradOut.shape[1], gradOut.shape[2]
	out.Zero()
	gd, od := gradOut.data, out.data
	p.For(n, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					gbase := ((b*oh+oy)*ow + ox) * c
					var cnt float32
					for ky := 0; ky < k; ky++ {
						iy := oy*s - pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*s - pad + kx
							if ix >= 0 && ix < w {
								cnt++
							}
						}
					}
					if cnt == 0 {
						continue
					}
					inv := 1 / cnt
					for ky := 0; ky < k; ky++ {
						iy := oy*s - pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*s - pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							ibase := ((b*h+iy)*w + ix) * c
							for ch := 0; ch < c; ch++ {
								od[ibase+ch] += gd[gbase+ch] * inv
							}
						}
					}
				}
			}
		}
	})
	return nil
}
