package tensor

import (
	"fmt"
	"math"
)

// Local response normalization across the channels of an NHWC tensor
// (AlexNet's): with s[c] = bias + (alpha/depth)·Σ_{c'∈win(c)} x[c']²,
//
//	y[c] = x[c]·s[c]^−β.
//
// win(c) is the depth/2 channels either side of c, clipped to the
// tensor, so an even depth spans depth+1 channels. Pixels are
// independent, so chunks own whole pixels and the bits cannot depend on
// width. Per pixel the squares are taken once into lane scratch and
// every window sum is its own ascending-channel float32 chain.

// lrnCheck validates an LRN kernel's NHWC input, window depth and
// destination. Shapes are compared in place; slices are built only to
// word an error, so a passing call allocates nothing.
func lrnCheck(name string, out, in *Tensor, depth int) error {
	if in.Rank() != 4 {
		return fmt.Errorf("tensor: %s requires NHWC input, got %v", name, in.shape)
	}
	if depth < 1 {
		return fmt.Errorf("tensor: %s window depth %d, want at least 1", name, depth)
	}
	if !SameShape(out.shape, in.shape) {
		return fmt.Errorf("tensor: %s destination %v, want %v", name, out.shape, in.shape)
	}
	return nil
}

// windowSums writes dst[c] = Σ src[c'] over c' within half of c, each
// sum one ascending chain. Depth 5 (half 2), the value every model
// passes, takes its unclipped windows in straight-line code; the clipped
// ones, and every window of another depth, loop. dst and src have one
// length and must not overlap.
func windowSums(dst, src []float32, half int) {
	n := len(src)
	lo, hi := 0, 0 // [lo,hi) is summed straight-line, the rest loops
	if half == 2 && n > 4 {
		lo, hi = 2, n-2
		in := dst[lo:hi]
		for c := range in {
			w := src[c : c+5 : c+5]
			in[c] = w[0] + w[1] + w[2] + w[3] + w[4]
		}
	}
	for c := 0; c < n; c++ {
		if c == lo {
			c = hi
		}
		w := src[max(0, c-half):min(n, c+half+1)]
		s := w[0]
		for _, v := range w[1:] {
			s += v
		}
		dst[c] = s
	}
}

// lrnScales fills sc with the pixel's normalizers s[c] for input row x,
// using sq (same length) for the squares. an is alpha/depth.
func lrnScales(sc, sq, x []float32, half int, bias, an float32) {
	for c, v := range x {
		sq[c] = v * v
	}
	windowSums(sc, sq, half)
	for c, s := range sc {
		sc[c] = bias + float32(an*s)
	}
}

// powNegBeta writes dst[c] = s[c]^−β, using tmp (same length) as
// workspace; dst may be s. β = 0.75, the value every model passes, is
// two float32 square roots and a reciprocal — each correctly rounded,
// so the result is within a few ulps of the float64 power every other β
// still takes. Each of the three takes its own pass, its operand dead
// afterwards: the scalar SSE forms merge into their destination
// register, and a loop whose destination is still live from the last
// iteration waits on it, one element at a time.
func powNegBeta(dst, s, tmp []float32, beta float32) {
	if beta != 0.75 {
		for c, v := range s {
			dst[c] = float32(math.Pow(float64(v), -float64(beta)))
		}
		return
	}
	dst, tmp = dst[:len(s)], tmp[:len(s)]
	for c, v := range s {
		tmp[c] = float32(math.Sqrt(float64(v)))
	}
	for c, r := range tmp {
		dst[c] = float32(math.Sqrt(float64(r)))
	}
	for c, r := range tmp {
		dst[c] = 1 / (r * dst[c])
	}
}

// LRNInto computes local response normalization of in into out, which
// must have in's shape, is fully overwritten and must not alias in.
func LRNInto(p *Pool, out, in *Tensor, depth int, bias, alpha, beta float32) error {
	if err := lrnCheck("LRNInto", out, in, depth); err != nil {
		return err
	}
	nc := in.shape[3]
	if in.Size() == 0 {
		return nil
	}
	half, an := depth/2, alpha/float32(depth)
	xd, od := in.data, out.data
	p.ForLane(in.Size()/nc, 64, func(lane, lo, hi int) {
		buf := p.laneScratch(lane, scratchLRN, 2*nc)
		sq, sc := buf[:nc], buf[nc:]
		for cell := lo; cell < hi; cell++ {
			x, o := xd[cell*nc:(cell+1)*nc], od[cell*nc:(cell+1)*nc]
			lrnScales(sc, sq, x, half, bias, an)
			powNegBeta(sc, sc, sq, beta)
			for c, v := range x {
				o[c] = v * sc[c]
			}
		}
	})
	return nil
}

// LRNGradInto writes the gradient of LRNInto with respect to its input
// into out, given the input in, the forward output y and the output
// gradient gradOut, all of one shape; out is fully overwritten and must
// not alias the others. Differentiating y[c'] = x[c']·s[c']^−β through
// every window that holds c, and writing x[c']·s[c']^(−β−1) as
// y[c']/s[c'], makes it a gather with one power per element:
//
//	dx[c] = g[c]·s[c]^−β − (2αβ/depth)·x[c]·Σ_{c'∈win(c)} g[c']·y[c']/s[c'].
func LRNGradInto(p *Pool, out, in, y, gradOut *Tensor, depth int, bias, alpha, beta float32) error {
	if err := lrnCheck("LRNGradInto", out, in, depth); err != nil {
		return err
	}
	if !SameShape(y.shape, in.shape) || !SameShape(gradOut.shape, in.shape) {
		return fmt.Errorf("tensor: LRNGradInto output %v and gradOut %v, want the input's shape %v", y.shape, gradOut.shape, in.shape)
	}
	nc := in.shape[3]
	if in.Size() == 0 {
		return nil
	}
	half, an := depth/2, alpha/float32(depth)
	coef := 2 * an * beta
	xd, yd, gd, od := in.data, y.data, gradOut.data, out.data
	p.ForLane(in.Size()/nc, 32, func(lane, lo, hi int) {
		buf := p.laneScratch(lane, scratchLRN, 3*nc)
		sq, sc, pw := buf[:nc], buf[nc:2*nc], buf[2*nc:]
		for cell := lo; cell < hi; cell++ {
			x, o := xd[cell*nc:(cell+1)*nc], od[cell*nc:(cell+1)*nc]
			yy, g := yd[cell*nc:(cell+1)*nc], gd[cell*nc:(cell+1)*nc]
			lrnScales(sc, sq, x, half, bias, an)
			powNegBeta(pw, sc, sq, beta)
			// sq next holds the gathered term, and sc its window sums.
			for c, s := range sc {
				sq[c] = g[c] * yy[c] / s
			}
			windowSums(sc, sq, half)
			for c, v := range x {
				o[c] = float32(g[c]*pw[c]) - float32(float32(coef*v)*sc[c])
			}
		}
	})
	return nil
}
