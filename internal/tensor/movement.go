package tensor

import "fmt"

// The movement kernels write into out, which must have the shape the
// arguments imply and must not alias an input; it may hold stale data
// and is fully overwritten.

// dstCheck validates a movement kernel's destination against the shape
// its arguments imply, dim(i) along axis i. The shape is compared in
// place and built only to report an error: these kernels run once per
// step of a compiled plan.
func dstCheck(name string, out *Tensor, rank int, dim func(i int) int) error {
	ok := len(out.shape) == rank
	for i := 0; ok && i < rank; i++ {
		ok = out.shape[i] == dim(i)
	}
	if ok {
		return nil
	}
	want := make([]int, rank)
	for i := range want {
		want[i] = dim(i)
	}
	return fmt.Errorf("tensor: %s destination %v, want %v", name, out.shape, want)
}

// TransposeInto permutes the axes of a tensor. perm must be a
// permutation of [0,rank).
func TransposeInto(p *Pool, out, in *Tensor, perm []int) error {
	rank := in.Rank()
	if len(perm) != rank {
		return fmt.Errorf("tensor: Transpose perm %v does not match rank %d", perm, rank)
	}
	seen := make([]bool, rank)
	for _, a := range perm {
		if a < 0 || a >= rank || seen[a] {
			return fmt.Errorf("tensor: Transpose perm %v is not a permutation", perm)
		}
		seen[a] = true
	}
	if err := dstCheck("TransposeInto", out, rank, func(i int) int { return in.shape[perm[i]] }); err != nil {
		return err
	}
	if rank == 2 && perm[0] == 1 && perm[1] == 0 {
		// Fast common case.
		r, c := in.shape[0], in.shape[1]
		id, od := in.data, out.data
		p.For(r, 64, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				for j := 0; j < c; j++ {
					od[j*r+i] = id[i*c+j]
				}
			}
		})
		return nil
	}
	// Stride of output position per input axis.
	ostByIn := make([]int, rank)
	ost := Strides(out.shape)
	for i, a := range perm {
		ostByIn[a] = ost[i]
	}
	id, od := in.data, out.data
	idx := make([]int, rank)
	opos := 0
	for pos := 0; pos < len(id); pos++ {
		od[opos] = id[pos]
		for i := rank - 1; i >= 0; i-- {
			idx[i]++
			opos += ostByIn[i]
			if idx[i] < in.shape[i] {
				break
			}
			idx[i] = 0
			opos -= ostByIn[i] * in.shape[i]
		}
	}
	return nil
}

// TileInto repeats a tensor multiples[i] times along each axis.
func TileInto(p *Pool, out, in *Tensor, multiples []int) error {
	rank := in.Rank()
	if len(multiples) != rank {
		return fmt.Errorf("tensor: Tile multiples %v does not match rank %d", multiples, rank)
	}
	for _, m := range multiples {
		if m < 1 {
			return fmt.Errorf("tensor: Tile multiple must be >= 1, got %v", multiples)
		}
	}
	if err := dstCheck("TileInto", out, rank, func(i int) int { return in.shape[i] * multiples[i] }); err != nil {
		return err
	}
	outShape := out.shape
	ist := Strides(in.shape)
	ost := Strides(outShape)
	id, od := in.data, out.data
	total := out.Size()
	p.For(total/max(1, outShape[rank-1]), 256, func(lo, hi int) {
		// Iterate over output rows (all but last axis), copying with
		// wrapped last axis.
		lastIn := in.shape[rank-1]
		lastOut := outShape[rank-1]
		for row := lo; row < hi; row++ {
			// Decompose row into leading output indices.
			rem := row
			ibase := 0
			for i := 0; i < rank-1; i++ {
				d := rem / (ost[i] / lastOut)
				rem %= ost[i] / lastOut
				ibase += (d % in.shape[i]) * ist[i]
			}
			orow := od[row*lastOut : (row+1)*lastOut]
			irow := id[ibase : ibase+lastIn]
			for j := 0; j < lastOut; j++ {
				orow[j] = irow[j%lastIn]
			}
		}
	})
	return nil
}

// ConcatInto joins tensors along the given axis. All inputs must agree
// on every other dimension.
func ConcatInto(p *Pool, out *Tensor, axis int, ins ...*Tensor) error {
	if len(ins) == 0 {
		return fmt.Errorf("tensor: Concat requires at least one input")
	}
	rank := ins[0].Rank()
	if axis < 0 {
		axis += rank
	}
	if axis < 0 || axis >= rank {
		return fmt.Errorf("tensor: Concat axis %d out of range for rank %d", axis, rank)
	}
	first := ins[0].shape
	concatDim := 0
	for _, t := range ins {
		if t.Rank() != rank {
			return fmt.Errorf("tensor: Concat rank mismatch")
		}
		for i := range t.shape {
			if i != axis && t.shape[i] != first[i] {
				return fmt.Errorf("tensor: Concat shape mismatch %v vs %v on axis %d", t.shape, first, i)
			}
		}
		concatDim += t.shape[axis]
	}
	err := dstCheck("ConcatInto", out, rank, func(i int) int {
		if i == axis {
			return concatDim
		}
		return first[i]
	})
	if err != nil {
		return err
	}
	outShape := out.shape
	// outer = product of dims before axis; inner = product after.
	outer := 1
	for i := 0; i < axis; i++ {
		outer *= outShape[i]
	}
	inner := 1
	for i := axis + 1; i < rank; i++ {
		inner *= outShape[i]
	}
	rowOut := concatDim * inner
	off := 0
	for _, t := range ins {
		rowIn := t.shape[axis] * inner
		td := t.data
		for o := 0; o < outer; o++ {
			copy(out.data[o*rowOut+off:o*rowOut+off+rowIn], td[o*rowIn:(o+1)*rowIn])
		}
		off += rowIn
	}
	return nil
}

// SliceTensorInto extracts a contiguous region: out[i...] =
// in[begin[0]+i0, begin[1]+i1, ...] with the given size per axis. A
// size of -1 means "to the end of that axis".
func SliceTensorInto(p *Pool, out, in *Tensor, begin, size []int) error {
	rank := in.Rank()
	if len(begin) != rank || len(size) != rank {
		return fmt.Errorf("tensor: Slice begin/size must match rank %d", rank)
	}
	extent := func(i int) int {
		if size[i] == -1 {
			return in.shape[i] - begin[i]
		}
		return size[i]
	}
	for i := 0; i < rank; i++ {
		if s := extent(i); begin[i] < 0 || s < 0 || begin[i]+s > in.shape[i] {
			return fmt.Errorf("tensor: Slice [%v:%v] out of bounds for %v", begin, size, in.shape)
		}
	}
	if err := dstCheck("SliceTensorInto", out, rank, extent); err != nil {
		return err
	}
	ist := Strides(in.shape)
	copySlice(in.data, out.data, in.shape, out.shape, begin, ist, 0, 0, 0)
	return nil
}

func copySlice(id, od []float32, inShape, outShape, begin, ist []int, axis, ioff, ooff int) {
	if axis == len(outShape)-1 {
		base := ioff + begin[axis]
		copy(od[ooff:ooff+outShape[axis]], id[base:base+outShape[axis]])
		return
	}
	ostride := 1
	for i := axis + 1; i < len(outShape); i++ {
		ostride *= outShape[i]
	}
	for i := 0; i < outShape[axis]; i++ {
		copySlice(id, od, inShape, outShape, begin, ist, axis+1,
			ioff+(begin[axis]+i)*ist[axis], ooff+i*ostride)
	}
}

// PadInto zero-pads each axis with before[i] leading and after[i]
// trailing zeros. out is zeroed first.
func PadInto(p *Pool, out, in *Tensor, before, after []int) error {
	rank := in.Rank()
	if len(before) != rank || len(after) != rank {
		return fmt.Errorf("tensor: Pad before/after must match rank %d", rank)
	}
	for i := 0; i < rank; i++ {
		if before[i] < 0 || after[i] < 0 {
			return fmt.Errorf("tensor: Pad amounts must be non-negative")
		}
	}
	if err := dstCheck("PadInto", out, rank, func(i int) int { return in.shape[i] + before[i] + after[i] }); err != nil {
		return err
	}
	out.Zero()
	ost := Strides(out.shape)
	addSliceSet(out.data, in.data, out.shape, in.shape, before, ost, 0, 0, 0)
	return nil
}

func addSliceSet(od, id []float32, outShape, inShape, begin, ost []int, axis, ooff, ioff int) {
	if axis == len(inShape)-1 {
		base := ooff + begin[axis]
		copy(od[base:base+inShape[axis]], id[ioff:ioff+inShape[axis]])
		return
	}
	istride := 1
	for i := axis + 1; i < len(inShape); i++ {
		istride *= inShape[i]
	}
	for i := 0; i < inShape[axis]; i++ {
		addSliceSet(od, id, outShape, inShape, begin, ost, axis+1,
			ooff+(begin[axis]+i)*ost[axis], ioff+i*istride)
	}
}

// GatherRowsInto selects rows of params (axis 0) by integer indices
// stored as float32 values: out[i, ...] = params[indices[i], ...]. The
// index tensor may have any shape; its shape replaces axis 0 of params.
func GatherRowsInto(p *Pool, out, params, indices *Tensor) error {
	if params.Rank() < 1 {
		return fmt.Errorf("tensor: GatherRows requires rank >= 1 params")
	}
	rowLen := params.Size() / params.shape[0]
	ir := indices.Rank()
	err := dstCheck("GatherRowsInto", out, ir+params.Rank()-1, func(i int) int {
		if i < ir {
			return indices.shape[i]
		}
		return params.shape[i-ir+1]
	})
	if err != nil {
		return err
	}
	pd, idd, od := params.data, indices.data, out.data
	n := indices.Size()
	for i := 0; i < n; i++ {
		r := int(idd[i])
		if r < 0 || r >= params.shape[0] {
			return fmt.Errorf("tensor: GatherRows index %d out of range [0,%d)", r, params.shape[0])
		}
		copy(od[i*rowLen:(i+1)*rowLen], pd[r*rowLen:(r+1)*rowLen])
	}
	return nil
}

// ScatterAddRowsInto accumulates grad rows into out, which has the
// params' shape, at the indexed rows (the adjoint of GatherRowsInto). out is
// zeroed first.
func ScatterAddRowsInto(p *Pool, out, grad, indices *Tensor) {
	out.Zero()
	rowLen := out.Size() / out.shape[0]
	gd, idd, od := grad.data, indices.data, out.data
	n := indices.Size()
	for i := 0; i < n; i++ {
		r := int(idd[i])
		dst := od[r*rowLen : (r+1)*rowLen]
		src := gd[i*rowLen : (i+1)*rowLen]
		for j := range dst {
			dst[j] += src[j]
		}
	}
}
