package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sched"
)

// lrnPowReference is the LRN forward and backward pass as the ops
// package computed them before the kernels existed — one float64 Pow per
// element, the gradient a scatter over each window — kept as the oracle
// the kernels are held to. It returns y and dL/dx for output gradient g.
func lrnPowReference(x, g *Tensor, depth int, bias, alpha, beta float32) (y, dx *Tensor) {
	nc := x.shape[3]
	y, dx = New(x.shape...), New(x.shape...)
	xd, gd := x.data, g.data
	window := func(c int) (lo, hi int) { return max(0, c-depth/2), min(nc-1, c+depth/2) }
	scaleAt := func(base, c int) float32 {
		lo, hi := window(c)
		var s float32
		for cc := lo; cc <= hi; cc++ {
			s += xd[base+cc] * xd[base+cc]
		}
		return bias + alpha/float32(depth)*s
	}
	for base := 0; base < len(xd); base += nc {
		for c := 0; c < nc; c++ {
			scale := float64(scaleAt(base, c))
			sb := math.Pow(scale, -float64(beta))
			y.data[base+c] = xd[base+c] * float32(sb)
			// dy[c]/dx[c'] = δ·scale^−β − β·scale^(−β−1)·(2α/n)·x[c]·x[c']
			// for c' in c's window.
			gv := gd[base+c]
			dx.data[base+c] += gv * float32(sb)
			coef := -float64(beta) * sb / scale * float64(2*alpha/float32(depth)) * float64(xd[base+c])
			lo, hi := window(c)
			for cc := lo; cc <= hi; cc++ {
				dx.data[base+cc] += gv * float32(coef*float64(xd[base+cc]))
			}
		}
	}
	return y, dx
}

// maxRelErr is the largest |got−want| relative to |want|, an element
// smaller than a tenth of the tensor's largest being judged against
// that instead (what cancels to nearly nothing carries the rounding of
// the terms that cancelled).
func maxRelErr(got, want *Tensor) float64 {
	var floor, worst float64
	for _, w := range want.data {
		floor = math.Max(floor, math.Abs(float64(w))/10)
	}
	for i, w := range want.data {
		d := math.Abs(float64(got.data[i]) - float64(w))
		worst = math.Max(worst, d/math.Max(math.Abs(float64(w)), floor))
	}
	return worst
}

// TestLRNMatchesPowReference holds both kernels to the float64 Pow
// loops over window depths below, at and beyond the channel count (an
// even depth keeps its depth+1-wide window), one-channel to wide
// pixels, and the pow-free β beside three that take math.Pow; each case
// must also give the same bits at widths 1 and 4.
func TestLRNMatchesPowReference(t *testing.T) {
	ex := sched.New(3)
	defer ex.Close()
	p1, p4 := NewPool(1), NewParallelPool(4, ex)
	rng := rand.New(rand.NewSource(5))
	for _, nc := range []int{1, 3, 24, 64} {
		for _, depth := range []int{1, 2, 5, nc + 3} {
			for _, beta := range []float32{0.5, 0.75, 1, 0.6} {
				name := fmt.Sprintf("c%d/depth%d/beta%g", nc, depth, beta)
				// Enough pixels that both kernels split into chunks.
				x := RandNormal(rng, 0, 2, 2, 9, 8, nc)
				g := RandNormal(rng, 0, 1, 2, 9, 8, nc)
				const bias, alpha = 2, 0.3 // α large enough that the window term matters
				wantY, wantDx := lrnPowReference(x, g, depth, bias, alpha, beta)

				y, dx := Full(99, x.shape...), Full(99, x.shape...)
				if err := LRNInto(p1, y, x, depth, bias, alpha, beta); err != nil {
					t.Fatal(err)
				}
				if err := LRNGradInto(p1, dx, x, y, g, depth, bias, alpha, beta); err != nil {
					t.Fatal(err)
				}
				if e := maxRelErr(y, wantY); e > 2e-6 {
					t.Errorf("%s: forward off the Pow reference by %g relative", name, e)
				}
				if e := maxRelErr(dx, wantDx); e > 1e-5 {
					t.Errorf("%s: gradient off the Pow reference by %g relative", name, e)
				}

				y4, dx4 := Full(-7, x.shape...), Full(-7, x.shape...)
				if err := LRNInto(p4, y4, x, depth, bias, alpha, beta); err != nil {
					t.Fatal(err)
				}
				if err := LRNGradInto(p4, dx4, x, y4, g, depth, bias, alpha, beta); err != nil {
					t.Fatal(err)
				}
				if i, ok := sameBits(y4.data, y.data); !ok {
					t.Errorf("%s: forward element %d differs between widths 1 and 4", name, i)
				}
				if i, ok := sameBits(dx4.data, dx.data); !ok {
					t.Errorf("%s: gradient element %d differs between widths 1 and 4", name, i)
				}
			}
		}
	}
}

// TestLRNRejectsBadOperands: rank, window depth and operand shapes are
// errors, and a call that passes them builds nothing to check them.
func TestLRNRejectsBadOperands(t *testing.T) {
	p := NewPool(1)
	x, other, flat := New(1, 2, 2, 4), New(1, 2, 2, 5), New(4, 4)
	for name, err := range map[string]error{
		"rank-2 input":      LRNInto(p, flat, flat, 5, 2, 1e-4, 0.75),
		"depth 0":           LRNInto(p, New(1, 2, 2, 4), x, 0, 2, 1e-4, 0.75),
		"depth -1":          LRNInto(p, New(1, 2, 2, 4), x, -1, 2, 1e-4, 0.75),
		"destination shape": LRNInto(p, other, x, 5, 2, 1e-4, 0.75),
		"grad rank":         LRNGradInto(p, flat, flat, flat, flat, 5, 2, 1e-4, 0.75),
		"grad depth 0":      LRNGradInto(p, New(1, 2, 2, 4), x, x, x, 0, 2, 1e-4, 0.75),
		"grad destination":  LRNGradInto(p, other, x, x, x, 5, 2, 1e-4, 0.75),
		"grad y shape":      LRNGradInto(p, New(1, 2, 2, 4), x, other, x, 5, 2, 1e-4, 0.75),
		"grad gradOut":      LRNGradInto(p, New(1, 2, 2, 4), x, x, other, 5, 2, 1e-4, 0.75),
	} {
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	y, dx := New(1, 2, 2, 4), New(1, 2, 2, 4)
	if n := testing.AllocsPerRun(10, func() {
		if LRNInto(p, y, x, 5, 2, 1e-4, 0.75) != nil || LRNGradInto(p, dx, x, y, x, 5, 2, 1e-4, 0.75) != nil {
			t.Fatal("valid call rejected")
		}
	}); n > 2 {
		t.Errorf("a valid LRNInto + LRNGradInto pair allocates %v times, want only the two region closures", n)
	}
	// No channels, no pixels: nothing to do, and no division by zero.
	empty := New(1, 2, 2, 0)
	if err := LRNInto(p, empty, empty, 5, 2, 1e-4, 0.75); err != nil {
		t.Errorf("empty input: %v", err)
	}
}
