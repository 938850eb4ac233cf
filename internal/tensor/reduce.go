package tensor

import (
	"fmt"
	"math"
)

// normAxes validates reduction axes against a rank, sorts out
// duplicates, and returns a lookup set.
func normAxes(rank int, axes []int) (map[int]bool, error) {
	set := make(map[int]bool, len(axes))
	for _, a := range axes {
		if a < 0 {
			a += rank
		}
		if a < 0 || a >= rank {
			return nil, fmt.Errorf("tensor: reduction axis out of range for rank %d", rank)
		}
		set[a] = true
	}
	return set, nil
}

// ReducedShape returns the shape after reducing the given axes. When
// keepDims is true the reduced axes remain with length 1; otherwise
// they are removed (a full reduction yields a scalar shape).
func ReducedShape(shape, axes []int, keepDims bool) ([]int, error) {
	set, err := normAxes(len(shape), axes)
	if err != nil {
		return nil, err
	}
	if len(axes) == 0 { // reduce all
		if keepDims {
			out := make([]int, len(shape))
			for i := range out {
				out[i] = 1
			}
			return out, nil
		}
		return []int{}, nil
	}
	var out []int
	for i, d := range shape {
		if set[i] {
			if keepDims {
				out = append(out, 1)
			}
			continue
		}
		out = append(out, d)
	}
	if out == nil {
		out = []int{}
	}
	return out, nil
}

// reduceGrain is the minimum per-chunk element count of a parallel
// full reduction — small enough that the losses of the tiny presets
// still split deterministically, large enough that chunk bookkeeping
// stays negligible.
const reduceGrain = 4096

// sumRange folds id[lo:hi] left to right — each chunk's partial is
// computed in the same index order at every width.
func sumRange(id []float32, lo, hi int) float32 {
	var s float32
	for _, v := range id[lo:hi] {
		s += v
	}
	return s
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
// reduced shape. out is reinitialized first, so it may hold arbitrary
// data but must not alias in.
func ReduceInto(p *Pool, out, in *Tensor, axes []int, keepDims bool, kind string) error {
	outShape, err := ReducedShape(in.shape, axes, keepDims)
	if err != nil {
		return err
	}
	if !SameShape(out.shape, outShape) {
		return fmt.Errorf("tensor: ReduceInto destination %v, want %v", out.shape, outShape)
	}
	checkNoAlias("ReduceInto", out, in)
	set, _ := normAxes(in.Rank(), axes)
	reduceAll := len(axes) == 0
	// Full reductions take the parallel path: per-chunk float32
	// partials combined in ascending chunk order (see Pool.ForSum), so
	// the result bits are identical at every pool width. The chunking
	// applies at width 1 too — a full reduction is never a plain linear
	// fold anymore, which is what keeps serial and parallel sessions
	// bit-identical.
	if reduceAll {
		id, od := in.data, out.data
		switch kind {
		case "sum", "mean":
			od[0] = p.ForSum(len(id), reduceGrain, func(lo, hi int) float32 {
				return sumRange(id, lo, hi)
			})
			if count := float64(in.Size()) / float64(max(1, out.Size())); kind == "mean" && count > 0 {
				od[0] *= float32(1 / count)
			}
		case "max":
			od[0] = p.ForMax(len(id), reduceGrain, func(lo, hi int) float32 {
				m := id[lo]
				for _, v := range id[lo+1 : hi] {
					if v > m {
						m = v
					}
				}
				return m
			})
		}
		return nil
	}
	// Build strides of the output aligned to the input's index space:
	// reduced axes contribute stride 0.
	ost := make([]int, in.Rank())
	{
		full := make([]int, 0, in.Rank())
		for i, d := range in.shape {
			if reduceAll || set[i] {
				full = append(full, 1)
			} else {
				full = append(full, d)
			}
		}
		fs := Strides(full)
		for i := range ost {
			ost[i] = fs[i]
			if reduceAll || set[i] {
				ost[i] = 0
			}
		}
	}
	id, od := in.data, out.data
	rank := in.Rank()
	var count float64
	if kind == "mean" {
		count = float64(in.Size()) / float64(max(1, out.Size()))
	}
	// Axis reductions with small outer dims take the chunked-partial
	// path: the input walk is chunked (same rule as every For region),
	// each chunk accumulates into a chunk-private output-sized partial
	// vector, and the partials combine elementwise in ascending chunk
	// order (Pool.ForSumVec / Pool.ForMaxVec) — the same determinism
	// contract as the full reductions above, so the result bits are
	// identical at every pool width, including 1.
	if out.Size() <= axisVecElems {
		ist := Strides(in.shape)
		walk := func(lo, hi int, acc []float32, fold func(acc []float32, oo int, v float32)) {
			idx := make([]int, rank)
			rem, oo := lo, 0
			for i := 0; i < rank; i++ {
				idx[i] = rem / ist[i]
				rem %= ist[i]
				oo += idx[i] * ost[i]
			}
			for pos := lo; pos < hi; pos++ {
				fold(acc, oo, id[pos])
				for i := rank - 1; i >= 0; i-- {
					idx[i]++
					oo += ost[i]
					if idx[i] < in.shape[i] {
						break
					}
					idx[i] = 0
					oo -= ost[i] * in.shape[i]
				}
			}
		}
		if kind == "max" {
			p.ForMaxVec(len(id), reduceGrain, len(od), od, func(lo, hi int, acc []float32) {
				walk(lo, hi, acc, func(acc []float32, oo int, v float32) {
					if v > acc[oo] {
						acc[oo] = v
					}
				})
			})
			return nil
		}
		p.ForSumVec(len(id), reduceGrain, len(od), od, func(lo, hi int, acc []float32) {
			walk(lo, hi, acc, func(acc []float32, oo int, v float32) {
				acc[oo] += v
			})
		})
		if kind == "mean" && count > 0 {
			inv := float32(1 / count)
			for i := range od {
				od[i] *= inv
			}
		}
		return nil
	}
	// Large outer dims parallelize over output elements instead: each
	// output element owns its whole reduced fiber, walked in ascending
	// input order — the same element order the old serial input-major
	// walk used for that output — so the result bits match the serial
	// path exactly, and chunk boundaries (a function of out.Size() and
	// grain only) can never split a fiber, making the path bit-identical
	// at every width.
	ist := Strides(in.shape)
	var outDims, outIst, redDims, redIst []int
	for i, d := range in.shape {
		if set[i] {
			redDims = append(redDims, d)
			redIst = append(redIst, ist[i])
		} else {
			outDims = append(outDims, d)
			outIst = append(outIst, ist[i])
		}
	}
	redTotal := 1
	for _, d := range redDims {
		redTotal *= d
	}
	outStrides := Strides(outDims)
	isMax := kind == "max"
	grain := 1 + reduceGrain/max(1, redTotal)
	p.For(len(od), grain, func(lo, hi int) {
		ridx := make([]int, len(redDims))
		for o := lo; o < hi; o++ {
			// Decompose the output index over the non-reduced dims to
			// find the fiber's base input offset. keepDims axes have
			// length 1 in out, so the flat index is the same either way.
			base, rem := 0, o
			for i := range outDims {
				base += (rem / outStrides[i]) * outIst[i]
				rem %= outStrides[i]
			}
			acc := float32(0)
			if isMax {
				acc = negInf
			}
			off := base
			for i := range ridx {
				ridx[i] = 0
			}
			for cnt := 0; cnt < redTotal; cnt++ {
				v := id[off]
				if isMax {
					if v > acc {
						acc = v
					}
				} else {
					acc += v
				}
				for i := len(ridx) - 1; i >= 0; i-- {
					ridx[i]++
					off += redIst[i]
					if ridx[i] < redDims[i] {
						break
					}
					ridx[i] = 0
					off -= redIst[i] * redDims[i]
				}
			}
			od[o] = acc
		}
	})
	if kind == "mean" && count > 0 {
		inv := float32(1 / count)
		for i := range od {
			od[i] *= inv
		}
	}
	return nil
}

// axisVecElems caps the output size eligible for the chunked-partial
// axis-reduction path: per-chunk accumulators cost maxRegionChunks ×
// output elements, so only small outer dims (batch-norm channel
// statistics, per-class sums) qualify — exactly the shapes that were
// stuck serial before, since their outer loop is too short to split.
const axisVecElems = 1024

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
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
