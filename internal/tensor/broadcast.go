package tensor

import "fmt"

// BroadcastShapes returns the NumPy-style broadcast of two shapes, or
// an error when they are incompatible. Dimensions align from the
// trailing end; a dimension broadcasts when either side is 1.
func BroadcastShapes(a, b []int) ([]int, error) {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		da, db := 1, 1
		if i >= n-len(a) {
			da = a[i-(n-len(a))]
		}
		if i >= n-len(b) {
			db = b[i-(n-len(b))]
		}
		switch {
		case da == db:
			out[i] = da
		case da == 1:
			out[i] = db
		case db == 1:
			out[i] = da
		default:
			return nil, fmt.Errorf("tensor: cannot broadcast shapes %v and %v", a, b)
		}
	}
	return out, nil
}

// broadcastStrides returns element strides for iterating a tensor of
// shape `shape` as if it had the broadcast shape `out` (stride 0 on
// broadcast dimensions).
func broadcastStrides(shape, out []int) []int {
	st := make([]int, len(out))
	real := Strides(shape)
	off := len(out) - len(shape)
	for i := range out {
		if i < off {
			st[i] = 0
			continue
		}
		d := shape[i-off]
		if d == 1 && out[i] != 1 {
			st[i] = 0
		} else {
			st[i] = real[i-off]
		}
	}
	return st
}

// BinaryOp applies fn elementwise over broadcast inputs a and b,
// writing into a freshly allocated tensor of the broadcast shape. The
// pool parallelizes over the leading axis of the output when profitable.
func BinaryOp(p *Pool, a, b *Tensor, fn func(x, y float32) float32) (*Tensor, error) {
	shape, err := BroadcastShapes(a.shape, b.shape)
	if err != nil {
		return nil, err
	}
	out := New(shape...)
	binaryOpInto(p, out, a, b, shape, fn)
	return out, nil
}

// BinaryOpInto applies fn elementwise over broadcast inputs into out,
// which must have the broadcast shape. out is fully overwritten and
// must not alias a or b.
func BinaryOpInto(p *Pool, out, a, b *Tensor, fn func(x, y float32) float32) error {
	shape, err := BroadcastShapes(a.shape, b.shape)
	if err != nil {
		return err
	}
	if !SameShape(out.shape, shape) {
		return fmt.Errorf("tensor: BinaryOpInto destination %v, want %v", out.shape, shape)
	}
	binaryOpInto(p, out, a, b, shape, fn)
	return nil
}

func binaryOpInto(p *Pool, out, a, b *Tensor, shape []int, fn func(x, y float32) float32) {
	// Fast path: identical shapes, flat loop.
	if SameShape(a.shape, b.shape) {
		ad, bd, od := a.data, b.data, out.data
		p.For(len(od), 16384, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				od[i] = fn(ad[i], bd[i])
			}
		})
		return
	}
	// Fast path: b is scalar.
	if b.Size() == 1 {
		s := b.data[0]
		ad, od := a.data, out.data
		p.For(len(od), 16384, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				od[i] = fn(ad[i], s)
			}
		})
		return
	}
	// Fast path: a is scalar.
	if a.Size() == 1 {
		s := a.data[0]
		bd, od := b.data, out.data
		p.For(len(od), 16384, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				od[i] = fn(s, bd[i])
			}
		})
		return
	}
	// Fast path: trailing broadcast a[..,C] op b[C] (bias add pattern).
	if len(b.shape) == 1 && len(a.shape) >= 1 && a.shape[len(a.shape)-1] == b.shape[0] && SameShape(shape, a.shape) {
		c := b.shape[0]
		ad, bd, od := a.data, b.data, out.data
		rows := len(od) / c
		p.For(rows, 256, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				base := r * c
				for j := 0; j < c; j++ {
					od[base+j] = fn(ad[base+j], bd[j])
				}
			}
		})
		return
	}
	// General case: strided iteration.
	sa := broadcastStrides(a.shape, shape)
	sb := broadcastStrides(b.shape, shape)
	so := Strides(shape)
	total := out.Size()
	ad, bd, od := a.data, b.data, out.data
	rank := len(shape)
	p.For(total, 8192, func(lo, hi int) {
		idx := make([]int, rank)
		// Decompose lo into the starting multi-index.
		rem := lo
		for i := 0; i < rank; i++ {
			idx[i] = rem / so[i]
			rem %= so[i]
		}
		oa, ob := 0, 0
		for i := 0; i < rank; i++ {
			oa += idx[i] * sa[i]
			ob += idx[i] * sb[i]
		}
		for pos := lo; pos < hi; pos++ {
			od[pos] = fn(ad[oa], bd[ob])
			// Increment the multi-index (odometer).
			for i := rank - 1; i >= 0; i-- {
				idx[i]++
				oa += sa[i]
				ob += sb[i]
				if idx[i] < shape[i] {
					break
				}
				idx[i] = 0
				oa -= sa[i] * shape[i]
				ob -= sb[i] * shape[i]
			}
		}
	})
}

// UnaryOpInto applies fn elementwise into out, which must have a's
// shape. out is fully overwritten and must not alias a.
func UnaryOpInto(p *Pool, out, a *Tensor, fn func(x float32) float32) error {
	if !SameShape(out.shape, a.shape) {
		return fmt.Errorf("tensor: UnaryOpInto destination %v, want %v", out.shape, a.shape)
	}
	unaryOpInto(p, out, a, fn)
	return nil
}

func unaryOpInto(p *Pool, out, a *Tensor, fn func(x float32) float32) {
	ad, od := a.data, out.data
	p.For(len(od), 16384, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = fn(ad[i])
		}
	})
}
