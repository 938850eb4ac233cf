package tensor

import (
	"fmt"
	"math"
	"slices"
)

// The block evaluator: the one kernel of every element-wise op. An op
// that runs alone is a program of one instruction, or, for a binary
// opcode over n operands, of the n−1 steps of its left fold
// (PointwiseInto). The runtime's fuse pass builds longer ones: it runs a
// connected set of single-reader element-wise ops of a plan as one step,
// after the set's head — a GEMM or a convolution, say — has written the
// destination the program then reads through Dest. An instruction is a
// value, not a closure: each block runs it as one direct loop chosen by
// its opcode, and this file holds every element-wise scalar function.

// Opcode names an element-wise scalar function.
type Opcode uint8

const (
	Neg Opcode = iota
	Exp
	Log
	Sqrt
	Square
	Tanh
	Sigmoid
	Relu
	Pow   // x^C
	Huber // ½x² where |x| ≤ C, else C(|x| − ½C)
	Add
	Sub
	Mul
	Div
	Maximum // x where x > y, else y
	Minimum // x where x < y, else y
	LessEqual
	Equal
	ReluGrad // x where y > 0, else 0: a gradient x routed by a Relu's output y
	numOpcodes
)

// arity is each opcode's operand count. A binary opcode over n ≥ 2
// operands is their left fold, ((in0 ∘ in1) ∘ in2) ∘ …, every step
// rounded to float32.
var arity = [numOpcodes]int{
	Neg: 1, Exp: 1, Log: 1, Sqrt: 1, Square: 1, Tanh: 1, Sigmoid: 1, Relu: 1, Pow: 1, Huber: 1,
	Add: 2, Sub: 2, Mul: 2, Div: 2, Maximum: 2, Minimum: 2, LessEqual: 2, Equal: 2, ReluGrad: 2,
}

// ScalarFn is an element-wise op's scalar function: an opcode and the
// one constant Pow (its exponent) and Huber (its δ) read. It is a
// comparable value, so a program is data the evaluator switches on.
type ScalarFn struct {
	Op Opcode
	C  float32
}

// Arity is the number of operands fn takes: 1, or 2 for a binary
// opcode, which also folds more.
func (fn ScalarFn) Arity() int { return arity[fn.Op] }

// unary writes fn(x[i]) to dst[i], x as long as dst.
func (fn ScalarFn) unary(dst, x []float32) {
	x = x[:len(dst)]
	switch fn.Op {
	case Neg:
		for i, v := range x {
			dst[i] = -v
		}
	case Exp:
		for i, v := range x {
			dst[i] = exp32(v)
		}
	case Log:
		for i, v := range x {
			dst[i] = log32(v)
		}
	case Sqrt:
		for i, v := range x {
			dst[i] = float32(math.Sqrt(float64(v)))
		}
	case Square:
		for i, v := range x {
			dst[i] = v * v
		}
	case Tanh:
		for i, v := range x {
			dst[i] = tanh32(v)
		}
	case Sigmoid:
		for i, v := range x {
			dst[i] = sigmoid32(v)
		}
	case Relu:
		for i, v := range x {
			dst[i] = pick(v > 0, v, 0)
		}
	case Pow:
		for i, v := range x {
			dst[i] = pow32(v, fn.C)
		}
	case Huber:
		for i, v := range x {
			dst[i] = huber(v, fn.C)
		}
	default:
		panic(fmt.Sprintf("tensor: opcode %d is not unary", fn.Op))
	}
}

// binary writes fn(x[i], y[i]) to dst[i], x and y as long as dst.
func (fn ScalarFn) binary(dst, x, y []float32) {
	x, y = x[:len(dst)], y[:len(dst)]
	switch fn.Op {
	case Add:
		for i, v := range x {
			dst[i] = v + y[i]
		}
	case Sub:
		for i, v := range x {
			dst[i] = v - y[i]
		}
	case Mul:
		for i, v := range x {
			dst[i] = v * y[i]
		}
	case Div:
		for i, v := range x {
			dst[i] = v / y[i]
		}
	case Maximum:
		for i, v := range x {
			dst[i] = pick(v > y[i], v, y[i])
		}
	case Minimum:
		for i, v := range x {
			dst[i] = pick(v < y[i], v, y[i])
		}
	case LessEqual:
		for i, v := range x {
			dst[i] = pick(v <= y[i], 1, 0)
		}
	case Equal:
		for i, v := range x {
			dst[i] = pick(v == y[i], 1, 0)
		}
	case ReluGrad:
		for i, v := range x {
			dst[i] = pick(y[i] > 0, v, 0)
		}
	default:
		panic(fmt.Sprintf("tensor: opcode %d is not binary", fn.Op))
	}
}

// exp32, log32, tanh32, sigmoid32 and pow32 go through float64 math and
// stay calls. Inlined into a loop, each element's conversion to float64
// writes part of the register that holds the last element's result, so
// the math calls would run one after another instead of overlapping
// (tanh ×2 slower).

//go:noinline
func exp32(x float32) float32 { return float32(math.Exp(float64(x))) }

//go:noinline
func log32(x float32) float32 { return float32(math.Log(float64(x))) }

//go:noinline
func tanh32(x float32) float32 { return float32(math.Tanh(float64(x))) }

//go:noinline
func sigmoid32(x float32) float32 { return float32(1 / (1 + math.Exp(-float64(x)))) }

//go:noinline
func pow32(x, e float32) float32 { return float32(math.Pow(float64(x), float64(e))) }

// pick is a if c holds, else b: Relu, ReluGrad, Maximum, Minimum and
// the comparisons, where a comparison with a NaN fails and picks b.
func pick(c bool, a, b float32) float32 {
	if c {
		return a
	}
	return b
}

// huber rounds ½δ before the subtraction, so that no target contracts
// it into a multiply-subtract.
func huber(x, d float32) float32 {
	a := x
	if a < 0 {
		a = -a
	}
	if a <= d {
		return 0.5 * x * x
	}
	return d * (a - float32(0.5*d))
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

// Instr is one instruction: Fn over the values in slot A and, for a
// binary opcode, slot B. Slots number the loads first, then the
// instructions' results.
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

// PointwiseInto runs one element-wise op into out: fn over in[0], or,
// for a binary opcode, over in[0] and in[1], or the left fold of fn over
// in[0], in[1], … in[n−1]. Each operand is read wherever it broadcasts to
// out, which must have their broadcast shape. It is the block
// evaluator's program of one instruction per fold step, so an op gives
// the same bits alone as fused into a longer one; a width-1 call over up
// to maxStackOperands operands allocates nothing. out is fully
// overwritten and must not alias an operand.
func PointwiseInto(p *Pool, out *Tensor, fn ScalarFn, in ...*Tensor) error {
	n := len(in)
	if n < fn.Arity() || fn.Arity() == 1 && n > 1 || !spans(out.shape, in) {
		shapes := make([][]int, len(in))
		for i, t := range in {
			shapes[i] = t.shape
		}
		return fmt.Errorf("tensor: element-wise destination %v for operands %v: want %d of them and their broadcast shape", out.shape, shapes, fn.Arity())
	}
	var lbuf [maxStackOperands]Load
	var cbuf [maxStackOperands - 1]Instr
	var abuf [maxStackOperands]int
	prog, args := Program{Loads: lbuf[:0], Code: cbuf[:0]}, abuf[:0]
	for k := range in {
		prog.Loads = append(prog.Loads, Load{In: k})
		args = append(args, k)
	}
	prog, _ = prog.Emit(fn, args...)
	return prog.Run(p, out, in)
}

// maxStackOperands is the most operands PointwiseInto holds on the stack.
const maxStackOperands = 8

// Emit returns the program with fn over the values in slots args
// appended, and the slot of its result: one instruction, or, for a
// binary opcode over n ≥ 2 slots, the n−1 steps of their left fold, each
// over the last step's result and the next slot. The program's loads
// must all precede it.
func (p Program) Emit(fn ScalarFn, args ...int) (Program, int) {
	a, rest := args[0], args[1:]
	if len(rest) == 0 {
		rest = args // a unary instruction, which reads no B
	}
	for _, b := range rest {
		p.Code = append(p.Code, Instr{Fn: fn, A: a, B: b})
		a = len(p.Loads) + len(p.Code) - 1
	}
	return p, a
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
			if ins.Fn.Arity() == 1 {
				ins.Fn.unary(dst, slot(ins.A))
			} else {
				ins.Fn.binary(dst, slot(ins.A), slot(ins.B))
			}
		}
	}
}
