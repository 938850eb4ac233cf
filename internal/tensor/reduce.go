package tensor

import (
	"fmt"
	"math"
)

// Reductions — Sum, Mean and Max over axes, and the sum back to a
// broadcast or tiled shape that their gradients need — are one kernel
// over one layout. The contiguous input's axes are coalesced into
// blocks, outermost first, that are either all reduced or all kept;
// size-1 axes are dropped, so adjacent blocks alternate, and the kept
// blocks are contiguous in the output in the same order. The walk
// covers a flat input range one innermost run at a time: a kept
// innermost block folds elementwise into a contiguous run of outputs, a
// reduced one chains into a single output. Every output meets its
// inputs in ascending input order. Max folds v > m from negInf (so it
// ignores NaN), Sum adds from 0, and Mean scales the sum afterwards.
//
// One chunk rule, a function of the layout alone, splits the outermost
// block into chunks of at least reduceGrain input elements. When that
// block is kept each chunk owns its outputs, so chunking cannot reach
// the bits. When it is reduced, chunk 0 folds into the output and the
// others into pool-owned partials, combined in ascending chunk order —
// at every width, including 1, so the bits never depend on width. The
// partials hold fewer elements than the input.

// maxBlocks bounds the blocks of a layout, which lives on the stack.
const maxBlocks = 8

// reduceGrain is the minimum input elements of a chunk.
const reduceGrain = 4096

// reduceLayout is a reduction of a contiguous input into a contiguous
// output, as coalesced blocks outermost first.
type reduceLayout struct {
	n       int
	dim     [maxBlocks]int // block lengths
	ist     [maxBlocks]int // input strides
	ost     [maxBlocks]int // output strides, 0 for a reduced block
	in, out int            // input and output element counts
}

// add appends an axis of length d, merging it into the innermost block
// when that is kept or reduced alike; until finish, ost holds 1 for a
// kept block. It reports false past maxBlocks.
func (l *reduceLayout) add(d int, kept bool) bool {
	switch {
	case d == 1:
		return true
	case l.n > 0 && (l.ost[l.n-1] != 0) == kept:
		l.dim[l.n-1] *= d
		return true
	case l.n == maxBlocks:
		return false
	}
	l.dim[l.n], l.ost[l.n] = d, 0
	if kept {
		l.ost[l.n] = 1
	}
	l.n++
	return true
}

// finish sets the strides and sizes once every axis is added. A layout
// of no blocks (a single element) becomes one kept block.
func (l *reduceLayout) finish() {
	if l.n == 0 {
		l.n, l.dim[0], l.ost[0] = 1, 1, 1
	}
	l.in, l.out = 1, 1
	for j := l.n - 1; j >= 0; j-- {
		l.ist[j] = l.in
		l.in *= l.dim[j]
		if l.ost[j] != 0 {
			l.ost[j] = l.out
			l.out *= l.dim[j]
		}
	}
}

func errBlocks(shape []int) error {
	return fmt.Errorf("tensor: reduction of %v needs more than %d blocks", shape, maxBlocks)
}

// axisMask validates reduction axes against a rank and returns them as
// a bitmask; no axes means all of them.
func axisMask(rank int, axes []int) (uint64, error) {
	if rank > 64 {
		return 0, fmt.Errorf("tensor: cannot reduce rank %d", rank)
	}
	if len(axes) == 0 {
		return 1<<uint(rank) - 1, nil
	}
	var m uint64
	for _, a := range axes {
		if a < 0 {
			a += rank
		}
		if a < 0 || a >= rank {
			return 0, fmt.Errorf("tensor: reduction axis out of range for rank %d", rank)
		}
		m |= 1 << uint(a)
	}
	return m, nil
}

// reducedDims appends shape less the masked axes to dst, or with them
// as 1 when keepDims.
func reducedDims(dst, shape []int, mask uint64, keepDims bool) []int {
	for i, d := range shape {
		if mask>>uint(i)&1 == 0 {
			dst = append(dst, d)
		} else if keepDims {
			dst = append(dst, 1)
		}
	}
	return dst
}

// ReducedShape returns the shape after reducing the given axes (none =
// all). When keepDims is true the reduced axes remain with length 1;
// otherwise they are removed (a full reduction yields a scalar shape).
func ReducedShape(shape, axes []int, keepDims bool) ([]int, error) {
	mask, err := axisMask(len(shape), axes)
	if err != nil {
		return nil, err
	}
	return reducedDims([]int{}, shape, mask, keepDims), nil
}

// Reduce applies a sum/max reduction over the given axes (empty axes =
// all). kind is "sum", "mean" or "max".
func Reduce(p *Pool, in *Tensor, axes []int, keepDims bool, kind string) (*Tensor, error) {
	outShape, err := ReducedShape(in.shape, axes, keepDims)
	if err != nil {
		return nil, err
	}
	out := New(outShape...)
	if err := ReduceInto(p, out, in, axes, keepDims, kind); err != nil {
		return nil, err
	}
	return out, nil
}

// ReduceInto applies the reduction into out, which must have the
// reduced shape. out is fully overwritten and must not alias in.
func ReduceInto(p *Pool, out, in *Tensor, axes []int, keepDims bool, kind string) error {
	mask, err := axisMask(in.Rank(), axes)
	if err != nil {
		return err
	}
	if kind != "sum" && kind != "mean" && kind != "max" {
		return fmt.Errorf("tensor: unknown reduction %q", kind)
	}
	var buf [maxBlocks]int
	if want := reducedDims(buf[:0], in.shape, mask, keepDims); !SameShape(out.shape, want) {
		return fmt.Errorf("tensor: ReduceInto destination %v, want %v", out.shape, append([]int(nil), want...))
	}
	checkNoAlias("ReduceInto", out, in)
	var l reduceLayout
	for i, d := range in.shape {
		if !l.add(d, mask>>uint(i)&1 == 0) {
			return errBlocks(in.shape)
		}
	}
	l.finish()
	reduce(p, &l, out.data, in.data, kind)
	return nil
}

// SumToInto sums in down to out's shape: the adjoint of broadcasting
// out's shape to in's, and of tiling it. out's shape, padded with
// leading 1s to in's rank, must divide in's axis by axis, each input
// axis being whole tiles of the target's. out is fully overwritten and
// must not alias in.
func SumToInto(p *Pool, out, in *Tensor) error {
	target, shape := out.shape, in.shape
	off := len(shape) - len(target)
	if off < 0 {
		return fmt.Errorf("tensor: SumToInto target %v does not tile %v", target, shape)
	}
	checkNoAlias("SumToInto", out, in)
	var l reduceLayout
	for i, d := range shape {
		t := 1
		if i >= off {
			t = target[i-off]
		}
		if t != d && (t < 1 || d%t != 0) {
			return fmt.Errorf("tensor: SumToInto target %v does not tile %v", target, shape)
		}
		m := 1
		if t > 0 {
			m = d / t
		}
		// Index k·t+j of the axis is tile k's element j.
		if !l.add(m, false) || !l.add(t, true) {
			return errBlocks(shape)
		}
	}
	l.finish()
	reduce(p, &l, out.data, in.data, "sum")
	return nil
}

// reduce is the one reduction kernel: it folds id into od along l under
// the chunk rule, then scales a mean.
func reduce(p *Pool, l *reduceLayout, od, id []float32, kind string) {
	isMax := kind == "max"
	seed := float32(0)
	if isMax {
		seed = negInf
	}
	if l.in == 0 {
		fill(od, seed)
		return
	}
	unit := l.in / l.dim[0]
	chunks := regionChunks(l.dim[0], (reduceGrain+unit-1)/unit)
	if chunks == 1 || l.ost[0] != 0 && p.workers == 1 {
		fill(od, seed)
		l.walk(od, id, 0, l.in, isMax)
	} else {
		reduceChunks(p, *l, od, id, chunks, seed, isMax)
	}
	if kind == "mean" {
		inv := float32(1 / (float64(l.in) / float64(l.out)))
		for i := range od {
			od[i] *= inv
		}
	}
}

// reduceChunks runs the chunks of l's outermost block on the pool. It
// takes the layout by value so that only a chunked reduction moves one
// to the heap for its closures.
func reduceChunks(p *Pool, l reduceLayout, od, id []float32, chunks int, seed float32, isMax bool) {
	unit, ounit := l.in/l.dim[0], l.ost[0]
	var parts []float32
	if ounit == 0 {
		parts = p.scratchBuf(scratchReduce, (chunks-1)*l.out)
	}
	p.run(l.dim[0], chunks, func(_, c, lo, hi int) {
		dst, own := od, od[lo*ounit:hi*ounit]
		if ounit == 0 {
			if c > 0 {
				dst = parts[(c-1)*l.out : c*l.out]
			}
			own = dst
		}
		fill(own, seed)
		l.walk(dst, id, lo*unit, hi*unit, isMax)
	})
	if ounit != 0 {
		return
	}
	p.For(l.out, reduceGrain, func(lo, hi int) {
		for c := 1; c < chunks; c++ {
			foldRun(od[lo:hi], parts[(c-1)*l.out+lo:(c-1)*l.out+hi], isMax)
		}
	})
}

// foldRun folds in elementwise into o.
func foldRun(o, in []float32, isMax bool) {
	if isMax {
		for i, v := range in {
			if v > o[i] {
				o[i] = v
			}
		}
		return
	}
	for i, v := range in {
		o[i] += v
	}
}

// walk folds id[lo:hi] into od one innermost run at a time, each output
// continuing from what od holds.
func (l *reduceLayout) walk(od, id []float32, lo, hi int, isMax bool) {
	k := l.n - 1
	var idx [maxBlocks]int
	oo, rem := 0, lo
	for j := 0; j < l.n; j++ {
		idx[j], rem = rem/l.ist[j], rem%l.ist[j]
		oo += idx[j] * l.ost[j]
	}
	for pos := lo; pos < hi; {
		run := min(l.dim[k]-idx[k], hi-pos)
		in := id[pos : pos+run]
		switch {
		case l.ost[k] != 0:
			foldRun(od[oo:oo+run], in, isMax)
		case isMax:
			m := od[oo]
			for _, v := range in {
				if v > m {
					m = v
				}
			}
			od[oo] = m
		default:
			s := od[oo]
			for _, v := range in {
				s += v
			}
			od[oo] = s
		}
		pos += run
		// The innermost index wraps to 0; carry into the outer blocks.
		oo -= idx[k] * l.ost[k]
		idx[k] = 0
		for j := k - 1; j >= 0; j-- {
			idx[j]++
			oo += l.ost[j]
			if idx[j] < l.dim[j] {
				break
			}
			idx[j] = 0
			oo -= l.ost[j] * l.dim[j]
		}
	}
}

func fill(s []float32, v float32) {
	for i := range s {
		s[i] = v
	}
}

// Softmax computes row-wise softmax over the last axis.
func Softmax(p *Pool, in *Tensor) *Tensor {
	out := New(in.shape...)
	softmaxInto(p, out, in)
	return out
}

// SoftmaxInto computes row-wise softmax into out, which must have in's
// shape; it is fully overwritten and must not alias in.
func SoftmaxInto(p *Pool, out, in *Tensor) error {
	if !SameShape(out.shape, in.shape) {
		return fmt.Errorf("tensor: SoftmaxInto destination %v, want %v", out.shape, in.shape)
	}
	checkNoAlias("SoftmaxInto", out, in)
	softmaxInto(p, out, in)
	return nil
}

func softmaxInto(p *Pool, out, in *Tensor) {
	c := in.shape[len(in.shape)-1]
	rows := in.Size() / c
	id, od := in.data, out.data
	p.For(rows, 64, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := id[r*c : (r+1)*c]
			orow := od[r*c : (r+1)*c]
			m := row[0]
			for _, v := range row {
				if v > m {
					m = v
				}
			}
			var sum float32
			for j, v := range row {
				e := float32(math.Exp(float64(v - m)))
				orow[j] = e
				sum += e
			}
			inv := 1 / sum
			for j := range orow {
				orow[j] *= inv
			}
		}
	})
}

// ArgMaxInto writes the index of the maximum along the last axis, as
// float32 values, into out, which has in's shape less that axis.
func ArgMaxInto(out, in *Tensor) {
	c := in.shape[len(in.shape)-1]
	rows := in.Size() / c
	for r := 0; r < rows; r++ {
		row := in.data[r*c : (r+1)*c]
		bi, bv := 0, row[0]
		for j, v := range row {
			if v > bv {
				bv, bi = v, j
			}
		}
		out.data[r] = float32(bi)
	}
}
