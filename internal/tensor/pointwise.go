package tensor

import (
	"fmt"
	"slices"
)

// The block evaluator: the one kernel of every element-wise op. An op
// that runs alone is a one-instruction program (PointwiseInto). The
// runtime's fuse pass builds longer ones: it runs a connected set of
// single-reader element-wise ops of a plan as one step, after the set's
// head — a GEMM or a convolution, say — has written the destination the
// program then reads through Dest.

// ScalarFn is an element-wise op's scalar function: Un for an op of one
// operand, Bin for an op of two.
type ScalarFn struct {
	Un  func(x float32) float32
	Bin func(x, y float32) float32
}

// Dest, as a Load's In, reads the destination's current contents: an
// epilogue runs over what its head kernel wrote there. A block's last
// instruction writes each element after every read of it.
const Dest = -1

// Load is one operand of a Program. View the output as rows × cols, cols
// being its last axis. A plain load reads input In wherever it
// broadcasts to the output, at stride 0 along each axis it lacks or
// holds at 1 (a bias; a (1,S,d) table under (B,S,d)). One of the
// output's shape is read in place, any other gathered into a slot per
// block. A window reads columns [Col, Col+cols) of each row of In, rows
// being RowStride long: a last-axis Slice, read instead of copied out.
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

// Program is an element-wise kernel: one op, or a fused set of them. Its
// instructions run in order over each block of the output; the last one
// writes the output, and every other result is stored to its slot in
// lane scratch as float32. Each element therefore sees exactly the
// float32 op sequence of the unfused ops — the same scalar functions on
// the same values, every intermediate rounded to float32 in memory, so
// nothing can contract into a multiply-add across instructions — and the
// result is bit-identical to running them one op at a time, at every
// width.
type Program struct {
	Loads []Load
	Code  []Instr
}

// pointwiseBlock is the most outputs one block holds, so that the slots
// of a program a few dozen instructions long stay in L1.
const pointwiseBlock = 256

// pointwiseGrain is the chunk rule's grain in elements.
const pointwiseGrain = 16384

// operand is a load resolved against a run's tensors: output element
// (r, c) of the rows × cols view reads src[rowAt(r) + c*cs].
type operand struct {
	src        []float32
	shape, out []int // the operand's and the output's
	off, cs    int
	direct     bool // the output's own layout: read in place
}

// resolve maps the load onto the run's tensors, or says why it cannot:
// an operand that broadens the output or its rank, or does not
// broadcast to it, or a window that does not fit its input's rows.
func (l Load) resolve(in []*Tensor, out *Tensor, cols int) (operand, error) {
	t := out
	if l.In != Dest {
		t = in[l.In]
	}
	o := operand{src: t.data, shape: t.shape, out: out.shape}
	pad, last := len(out.shape)-len(t.shape), 1
	if len(t.shape) > 0 {
		last = t.shape[len(t.shape)-1]
	}
	ok := pad >= 0
	for k := max(pad, 0); ok && k < len(out.shape)-1; k++ {
		ok = t.shape[k-pad] == out.shape[k] || t.shape[k-pad] == 1
	}
	switch {
	case l.Window:
		o.off, o.cs = l.Col, 1
		ok = ok && len(t.shape) > 0 && last == l.RowStride && l.Col >= 0 && l.Col+cols <= last
	case last == cols:
		o.cs = 1
	case last != 1:
		ok = false
	}
	if !ok {
		return o, fmt.Errorf("tensor: element-wise operand %v (window %t at column %d) does not broadcast to output %v",
			t.shape, l.Window, l.Col, out.shape)
	}
	o.direct = !l.Window && SameShape(t.shape, out.shape)
	return o, nil
}

// rowAt is where output row r starts in the operand: the row's index
// along each leading axis, at the operand's stride along it, 0 where the
// operand broadcasts or lacks the axis.
func (o *operand) rowAt(r int) int {
	at, stride := o.off, 1
	if n := len(o.shape); n > 0 {
		stride = o.shape[n-1]
	}
	for k, j := len(o.out)-2, len(o.shape)-2; j >= 0 && r > 0; k, j = k-1, j-1 {
		if o.shape[j] != 1 {
			at += r % o.out[k] * stride
		}
		r /= o.out[k]
		stride *= o.shape[j]
	}
	return at
}

// gather copies columns [c0,c0+w) of rows [r0,r1) into dst, row after
// row.
func (o *operand) gather(dst []float32, r0, r1, c0, w int) {
	for r := r0; r < r1; r++ {
		seg, at := dst[(r-r0)*w:(r-r0+1)*w], o.rowAt(r)+c0*o.cs
		if o.cs == 1 {
			copy(seg, o.src[at:at+w])
			continue
		}
		seg[0] = o.src[at]
		for j := 1; j < w; j *= 2 {
			copy(seg[j:], seg[:j])
		}
	}
}

// PointwiseInto runs one element-wise op into out: fn.Un over in[0], or
// fn.Bin over in[0] and in[1], each read wherever it broadcasts to out,
// which must have their broadcast shape. It is the block evaluator's
// one-instruction program, so an op gives the same bits alone as fused
// into a longer one; a width-1 call allocates nothing. out is fully
// overwritten and must not alias an operand.
func PointwiseInto(p *Pool, out *Tensor, fn ScalarFn, in ...*Tensor) error {
	arity := 1
	if fn.Bin != nil {
		arity = 2
	}
	if len(in) != arity || !spans(out.shape, in) {
		shapes := make([][]int, len(in))
		for i, t := range in {
			shapes[i] = t.shape
		}
		return fmt.Errorf("tensor: element-wise destination %v for operands %v: want %d of them and their broadcast shape", out.shape, shapes, arity)
	}
	prog := Program{Loads: []Load{{In: 0}, {In: 1}}[:arity], Code: []Instr{{Fn: fn, A: 0, B: 1}}}
	return prog.Run(p, out, in)
}

// spans reports whether some operand holds each axis of out at out's
// extent. With Run's check that each operand broadcasts to out, that
// makes out their broadcast shape, without allocating one to compare.
func spans(out []int, in []*Tensor) bool {
	for k, d := range out {
		held := false
		for _, t := range in {
			pad := len(out) - len(t.shape)
			held = held || k >= pad && t.shape[k-pad] == d
		}
		if !held {
			return false
		}
	}
	return true
}

// Run evaluates the program into out; in holds the tensors the loads
// name, none of which may alias out. Chunks come from the pool's chunk
// rule over blocks of the output, so they are fixed by trip count and
// grain; a width-1 run allocates nothing.
func (p *Program) Run(pool *Pool, out *Tensor, in []*Tensor) error {
	checkNoAlias("pointwise program", out, in...)
	g := pointwiseGeom{rows: 1, cols: 1, rowsPer: 1, tiles: 1}
	if r := len(out.shape); r > 0 {
		g.rows, g.cols = SizeOf(out.shape[:r-1]), out.shape[r-1]
	}
	for k, l := range p.Loads {
		o, err := l.resolve(in, out, g.cols)
		if err != nil {
			return err
		}
		if o.direct {
			g.direct |= 1 << k // 0 past bit 63: such a load is gathered
		}
	}
	if g.rows*g.cols == 0 {
		return nil
	}
	if g.cols >= pointwiseBlock {
		g.tiles = (g.cols + pointwiseBlock - 1) / pointwiseBlock
	} else {
		g.rowsPer = pointwiseBlock / g.cols
	}
	blocks := (g.rows + g.rowsPer - 1) / g.rowsPer * g.tiles
	grain := max(1, pointwiseGrain/(g.rowsPer*min(g.cols, pointwiseBlock)))
	if pool.inline(blocks, grain) {
		pointwiseRun{g, p.Loads, p.Code, out, in}.blocks(pool, 0, 0, blocks)
	} else {
		g.forBlocks(pool, p.Loads, p.Code, out, in, blocks, grain)
	}
	return nil
}

// pointwiseGeom is one Run's geometry: a block is rowsPer whole rows,
// or, for rows of at least pointwiseBlock, one of a row's tiles. Bit k
// of direct says load k is read in place.
type pointwiseGeom struct {
	rows, cols, rowsPer, tiles int
	direct                     uint64
}

// pointwiseRun is a Run: its geometry, program and tensors.
type pointwiseRun struct {
	pointwiseGeom
	loads []Load
	code  []Instr
	out   *Tensor
	in    []*Tensor
}

// forBlocks runs the blocks as a pool region. Its closure may run on a
// helper, so what it holds moves to the heap: copies, so that neither
// the caller's program nor its operand list has to, and a run that does
// not split allocates nothing (see Pool.inline).
func (g pointwiseGeom) forBlocks(pool *Pool, loads []Load, code []Instr, out *Tensor, in []*Tensor, blocks, grain int) {
	r := pointwiseRun{g, slices.Clone(loads), slices.Clone(code), out, slices.Clone(in)}
	pool.ForLane(blocks, grain, func(lane, lo, hi int) { r.blocks(pool, lane, lo, hi) })
}

// blocks evaluates blocks [lo,hi) on lane: gather every load that is
// not read in place, then run each instruction as one loop over the
// block.
func (r pointwiseRun) blocks(pool *Pool, lane, lo, hi int) {
	last := len(r.code) - 1
	scratch := pool.laneScratch(lane, scratchPointwise, (len(r.loads)+last)*pointwiseBlock)
	for b := lo; b < hi; b++ {
		r0 := b / r.tiles * r.rowsPer
		r1 := min(r.rows, r0+r.rowsPer)
		c0 := b % r.tiles * pointwiseBlock
		w := min(r.cols, c0+pointwiseBlock) - c0
		at, n := r0*r.cols+c0, (r1-r0)*w // a block is one run of the output
		slot := func(s int) []float32 {
			if s < len(r.loads) && r.direct>>s&1 == 1 {
				t := r.out
				if l := r.loads[s]; l.In != Dest {
					t = r.in[l.In]
				}
				return t.data[at : at+n]
			}
			return scratch[s*pointwiseBlock : s*pointwiseBlock+n]
		}
		for k, l := range r.loads {
			if r.direct>>k&1 == 1 {
				continue
			}
			o, _ := l.resolve(r.in, r.out, r.cols)
			o.gather(slot(k), r0, r1, c0, w)
		}
		for k, ins := range r.code {
			dst := r.out.data[at : at+n]
			if k < last {
				dst = slot(len(r.loads) + k)
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
