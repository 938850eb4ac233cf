package tensor

import "fmt"

// The block evaluator: one kernel for any straight line of element-wise
// ops. The runtime's fuse pass builds its programs: it runs a connected
// set of single-reader element-wise ops of a plan as one step, after the
// set's head — a GEMM or a convolution, say — has written the
// destination the program then reads through Dest.

// ScalarFn is an element-wise op's scalar function: Un for an op of one
// operand, Bin for an op of two.
type ScalarFn struct {
	Un  func(x float32) float32
	Bin func(x, y float32) float32
}

// Dest, as a Load's In, reads the destination's current contents: an
// epilogue runs over what its head kernel wrote there. Every load of a
// block is gathered before the block's last instruction writes it.
const Dest = -1

// Load is one operand of a Program, gathered into a slot of its own for
// each block. View the output as rows × cols, cols being its last axis.
// A plain load reads input In at a map from the output index that is
// affine in row and column, derived from the shapes (see AffineOperand).
// A window reads columns [Col, Col+cols) of each row of In, rows being
// RowStride long: a last-axis Slice, read in place instead of copied.
type Load struct {
	In             int
	Window         bool
	Col, RowStride int
}

// Instr is one instruction: Fn over the values in slot A and, for a Bin,
// slot B. Slots number the loads first, then the instructions' results.
type Instr struct {
	Fn   ScalarFn
	A, B int
}

// Program is a fused element-wise kernel. Its instructions run in order
// over each block of the output; the last one writes the output, and
// every other result is stored to its slot in lane scratch as float32.
// Each element therefore sees exactly the float32 op sequence of the
// unfused ops — the same scalar functions on the same values, every
// intermediate rounded to float32 in memory, so nothing can contract
// into a multiply-add across instructions — and the result is
// bit-identical to running them one op at a time, at every width.
type Program struct {
	Loads []Load
	Code  []Instr
}

// pointwiseBlock is the most outputs one block holds, so that the slots
// of a program a few dozen instructions long stay in L1.
const pointwiseBlock = 256

// pointwiseGrain is the chunk rule's grain in elements: the one the
// unfused element-wise kernels split at.
const pointwiseGrain = 16384

// AffineOperand reports whether an operand of shape in is read from an
// output of shape out by a map affine in row and column: the same shape,
// a row broadcast such as (B,1), a column broadcast such as a bias (C),
// or a scalar. Any other broadcast, and any operand that broadens out,
// is not.
func AffineOperand(in, out []int) bool {
	_, _, ok := operandMap(in, out)
	return ok
}

// operandMap is how an operand of shape in is read at element (r, c) of
// an output of shape out viewed as rows × cols: at r*rs + c*cs.
func operandMap(in, out []int) (rs, cs int, ok bool) {
	if len(in) > len(out) {
		return 0, 0, false
	}
	if len(out) == 0 {
		return 0, 0, true
	}
	pad := len(out) - len(in)
	same, ones := true, true
	for k := 0; k < len(out)-1; k++ {
		d := 1
		if k >= pad {
			d = in[k-pad]
		}
		if d != out[k] && d != 1 {
			return 0, 0, false
		}
		same = same && d == out[k]
		ones = ones && d == 1
	}
	last := 1
	if len(in) > 0 {
		last = in[len(in)-1]
	}
	switch last {
	case out[len(out)-1]:
		cs = 1
	case 1:
		cs = 0
	default:
		return 0, 0, false
	}
	switch {
	case same:
		rs = last
	case ones:
		rs = 0
	default:
		return 0, 0, false
	}
	return rs, cs, true
}

// at resolves a load against the run's tensors: the data it reads and
// the map from output element (r, c) to off + r*rs + c*cs.
func (l Load) at(in []*Tensor, out *Tensor, cols int) (src []float32, off, rs, cs int, ok bool) {
	t := out
	if l.In != Dest {
		t = in[l.In]
	}
	if !l.Window {
		rs, cs, ok = operandMap(t.shape, out.shape)
		return t.data, 0, rs, cs, ok
	}
	ok = len(t.shape) == len(out.shape) && len(t.shape) > 0 &&
		t.shape[len(t.shape)-1] == l.RowStride && l.Col >= 0 && l.Col+cols <= l.RowStride
	for k := 0; ok && k < len(t.shape)-1; k++ {
		ok = t.shape[k] == out.shape[k]
	}
	return t.data, l.Col, l.RowStride, 1, ok
}

// Run evaluates the program into out; in holds the tensors the loads
// name, none of which may alias out. Chunks come from the pool's chunk
// rule over blocks of the output, so they are fixed by trip count and
// grain; a width-1 run allocates nothing.
func (p *Program) Run(pool *Pool, out *Tensor, in []*Tensor) error {
	checkNoAlias("pointwise program", out, in...)
	rows, cols := 1, 1
	if r := len(out.shape); r > 0 {
		rows, cols = SizeOf(out.shape[:r-1]), out.shape[r-1]
	}
	for _, l := range p.Loads {
		if _, _, _, _, ok := l.at(in, out, cols); !ok {
			src := out
			if l.In != Dest {
				src = in[l.In]
			}
			return fmt.Errorf("tensor: fused element-wise operand %v (window %t at column %d) is not an affine read of output %v",
				src.shape, l.Window, l.Col, out.shape)
		}
	}
	if rows*cols == 0 {
		return nil
	}
	r := pointwiseRun{prog: p, out: out, in: in, rows: rows, cols: cols, rowsPer: 1, tiles: 1}
	if cols >= pointwiseBlock {
		r.tiles = (cols + pointwiseBlock - 1) / pointwiseBlock
	} else {
		r.rowsPer = pointwiseBlock / cols
	}
	blocks := (rows + r.rowsPer - 1) / r.rowsPer * r.tiles
	grain := max(1, pointwiseGrain/(r.rowsPer*min(cols, pointwiseBlock)))
	if pool.inline(blocks, grain) {
		r.blocks(pool, 0, 0, blocks)
	} else {
		r.forBlocks(pool, blocks, grain)
	}
	return nil
}

// pointwiseRun is one Run's geometry: a block is rowsPer whole rows, or,
// for rows of at least pointwiseBlock, one of a row's tiles.
type pointwiseRun struct {
	prog                       *Program
	out                        *Tensor
	in                         []*Tensor
	rows, cols, rowsPer, tiles int
}

// forBlocks runs the blocks as a pool region. It takes the run by value
// so that only a region that splits moves one to the heap for its
// closure (see Pool.inline).
func (r pointwiseRun) forBlocks(pool *Pool, blocks, grain int) {
	pool.ForLane(blocks, grain, func(lane, lo, hi int) { r.blocks(pool, lane, lo, hi) })
}

// blocks evaluates blocks [lo,hi) on lane: gather every load, then run
// each instruction as one loop over the block.
func (r pointwiseRun) blocks(pool *Pool, lane, lo, hi int) {
	loads, code := r.prog.Loads, r.prog.Code
	last := len(code) - 1
	scratch := pool.laneScratch(lane, scratchPointwise, (len(loads)+last)*pointwiseBlock)
	for b := lo; b < hi; b++ {
		r0 := b / r.tiles * r.rowsPer
		r1 := min(r.rows, r0+r.rowsPer)
		c0 := b % r.tiles * pointwiseBlock
		w := min(r.cols, c0+pointwiseBlock) - c0
		n := (r1 - r0) * w
		slot := func(s int) []float32 { return scratch[s*pointwiseBlock : s*pointwiseBlock+n] }
		for k, l := range loads {
			src, off, rs, cs, _ := l.at(r.in, r.out, r.cols)
			dst := slot(k)
			for row := r0; row < r1; row++ {
				base := off + row*rs + c0*cs
				seg := dst[(row-r0)*w : (row-r0+1)*w]
				if cs == 1 {
					copy(seg, src[base:base+w])
				} else {
					v := src[base]
					for j := range seg {
						seg[j] = v
					}
				}
			}
		}
		for k, ins := range code {
			dst := r.out.data[r0*r.cols+c0 : r0*r.cols+c0+n]
			if k < last {
				dst = slot(len(loads) + k)
			}
			if f := ins.Fn.Un; f != nil {
				x := slot(ins.A)[:len(dst)]
				for i := range dst {
					dst[i] = f(x[i])
				}
				continue
			}
			f, x, y := ins.Fn.Bin, slot(ins.A)[:len(dst)], slot(ins.B)[:len(dst)]
			for i := range dst {
				dst[i] = f(x[i], y[i])
			}
		}
	}
}
