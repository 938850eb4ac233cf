package tensor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sched"
)

// naiveUnary and naiveBinary are every opcode's scalar function,
// written apart from the evaluator's loops: the reference they are held
// to. c is Pow's exponent or Huber's δ.
var naiveUnary = map[Opcode]func(x, c float32) float32{
	Neg:     func(x, _ float32) float32 { return -x },
	Exp:     func(x, _ float32) float32 { return float32(math.Exp(float64(x))) },
	Log:     func(x, _ float32) float32 { return float32(math.Log(float64(x))) },
	Sqrt:    func(x, _ float32) float32 { return float32(math.Sqrt(float64(x))) },
	Square:  func(x, _ float32) float32 { return x * x },
	Tanh:    func(x, _ float32) float32 { return float32(math.Tanh(float64(x))) },
	Sigmoid: func(x, _ float32) float32 { return float32(1 / (1 + math.Exp(-float64(x)))) },
	Relu: func(x, _ float32) float32 {
		if x > 0 {
			return x
		}
		return 0
	},
	Pow: func(x, c float32) float32 { return float32(math.Pow(float64(x), float64(c))) },
	Huber: func(x, c float32) float32 {
		if x <= c && -x <= c {
			return 0.5 * x * x
		}
		half := float32(0.5 * c)
		return c * (float32(math.Abs(float64(x))) - half)
	},
}

var naiveBinary = map[Opcode]func(x, y float32) float32{
	Add: func(x, y float32) float32 { return x + y },
	Sub: func(x, y float32) float32 { return x - y },
	Mul: func(x, y float32) float32 { return x * y },
	Div: func(x, y float32) float32 { return x / y },
	Maximum: func(x, y float32) float32 {
		if x > y {
			return x
		}
		return y
	},
	Minimum: func(x, y float32) float32 {
		if x < y {
			return x
		}
		return y
	},
	LessEqual: func(x, y float32) float32 {
		if x <= y {
			return 1
		}
		return 0
	},
	Equal: func(x, y float32) float32 {
		if x == y {
			return 1
		}
		return 0
	},
	ReluGrad: func(g, y float32) float32 {
		if y > 0 {
			return g
		}
		return 0
	},
}

// naivePointwise is fn over the operands broadcast to shape, one output
// index at a time, a binary fn folding them left to right: the reference
// the block evaluator is held to. It shares no code with Program.
func naivePointwise(shape []int, fn ScalarFn, in ...*Tensor) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	out := &Tensor{shape: append([]int{}, shape...), data: make([]float32, n)}
	idx := make([]int, len(shape))
	at := func(t *Tensor) float32 {
		off, stride := 0, 1
		for k := len(t.shape) - 1; k >= 0; k-- {
			if t.shape[k] != 1 {
				off += idx[k+len(shape)-len(t.shape)] * stride
			}
			stride *= t.shape[k]
		}
		return t.data[off]
	}
	for i := range out.data {
		rem := i
		for k := len(shape) - 1; k >= 0; k-- {
			idx[k], rem = rem%shape[k], rem/shape[k]
		}
		v := at(in[0])
		if un, ok := naiveUnary[fn.Op]; ok {
			v = un(v, fn.C)
		}
		for _, t := range in[1:] {
			v = naiveBinary[fn.Op](v, at(t))
		}
		out.data[i] = v
	}
	return out
}

// cellProgram is an LSTM cell's state update over gates (R, 4C), then a
// tail over every other operand kind: a row broadcast r (R, 1), a bias
// (C) and a scalar s:
//
//	y = ((σ(g[:,C:2C])·cs + σ(g[:,0:C])·tanh(g[:,3C:4C])) − r) · bias / s
//
// Inputs: g, cs, r, bias, s.
func cellProgram(c int) Program {
	win := func(k int) Load { return Load{In: 0, Window: true, Col: k * c, RowStride: 4 * c} }
	// Slots: 0–2 windows, 3 cs, 4 r, 5 bias, 6 s, then 7.. the code.
	return Program{
		Loads: []Load{win(1), win(0), win(3), {In: 1}, {In: 2}, {In: 3}, {In: 4}},
		Code: []Instr{
			{Fn: ScalarFn{Op: Sigmoid}, A: 0},    // 7  f
			{Fn: ScalarFn{Op: Mul}, A: 7, B: 3},  // 8  f·cs
			{Fn: ScalarFn{Op: Sigmoid}, A: 1},    // 9  i
			{Fn: ScalarFn{Op: Tanh}, A: 2},       // 10 cand
			{Fn: ScalarFn{Op: Mul}, A: 9, B: 10}, // 11 i·cand
			{Fn: ScalarFn{Op: Add}, A: 8, B: 11}, // 12 cs'
			{Fn: ScalarFn{Op: Sub}, A: 12, B: 4}, // 13
			{Fn: ScalarFn{Op: Mul}, A: 13, B: 5}, // 14
			{Fn: ScalarFn{Op: Div}, A: 14, B: 6}, // out
		},
	}
}

// cellUnfused is cellProgram one op at a time: the slices through
// SliceTensorInto, every other op through naivePointwise.
func cellUnfused(t *testing.T, p *Pool, g, cs, r, bias, s *Tensor) *Tensor {
	t.Helper()
	rows, c := cs.shape[0], cs.shape[1]
	slice := func(k int) *Tensor {
		out := New(rows, c)
		if err := SliceTensorInto(p, out, g, []int{0, k * c}, []int{rows, c}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	un := func(op Opcode, a *Tensor) *Tensor {
		return naivePointwise(a.shape, ScalarFn{Op: op}, a)
	}
	bin := func(op Opcode, a, b *Tensor) *Tensor {
		return naivePointwise([]int{rows, c}, ScalarFn{Op: op}, a, b)
	}
	next := bin(Add, bin(Mul, un(Sigmoid, slice(1)), cs), bin(Mul, un(Sigmoid, slice(0)), un(Tanh, slice(3))))
	return bin(Div, bin(Mul, bin(Sub, next, r), bias), s)
}

// TestProgramMatchesUnfusedOps: the block evaluator gives the naive
// reference's bits for every load kind — windows, same shape, row and column
// broadcasts, a scalar — over shapes that make one block, several
// whole-row blocks, row tiles and a split region, at pool widths 1, 2
// and 4, with NaN, ±Inf and −0 among the inputs.
func TestProgramMatchesUnfusedOps(t *testing.T) {
	ex := sched.New(3)
	defer ex.Close()
	pools := map[int]*Pool{1: NewPool(1), 2: NewParallelPool(2, ex), 4: NewParallelPool(4, ex)}
	rng := rand.New(rand.NewSource(5))
	for _, shape := range [][2]int{{1, 1}, {4, 16}, {70, 5}, {3, 300}, {256, 300}} {
		rows, c := shape[0], shape[1]
		g := RandNormal(rng, 0, 2, rows, 4*c)
		g.data[0], g.data[len(g.data)-1] = float32(math.NaN()), float32(math.Inf(-1))
		cs := RandNormal(rng, 0, 1, rows, c)
		cs.data[len(cs.data)/2] = float32(math.Copysign(0, -1))
		r, bias := RandNormal(rng, 0, 1, rows, 1), RandNormal(rng, 1, 0.5, c)
		s := Scalar(0.75)
		want := cellUnfused(t, NewPool(1), g, cs, r, bias, s)
		prog := cellProgram(c)
		for w, p := range pools {
			got := Full(float32(math.NaN()), rows, c) // stale: Run must overwrite it
			if err := prog.Run(p, got, []*Tensor{g, cs, r, bias, s}); err != nil {
				t.Fatal(err)
			}
			if i, ok := sameBits(got.data, want.data); !ok {
				t.Fatalf("%dx%d at width %d: element %d is %v, naive %v", rows, c, w, i, got.data[i], want.data[i])
			}
		}
	}
}

// TestProgramReadsItsDestination: a Dest load reads what a base kernel
// left in out, so a chain over it rewrites out in place with the bits of
// the chain applied to a copy.
func TestProgramReadsItsDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, shape := range [][2]int{{4, 16}, {3, 600}} {
		out := RandNormal(rng, 0, 1, shape[0], shape[1])
		bias := RandNormal(rng, 0, 1, shape[1])
		want := naivePointwise(out.shape, ScalarFn{Op: Tanh}, naivePointwise(out.shape, ScalarFn{Op: Add}, out, bias))
		prog := Program{
			Loads: []Load{{In: Dest}, {In: 0}},
			Code:  []Instr{{Fn: ScalarFn{Op: Add}, A: 0, B: 1}, {Fn: ScalarFn{Op: Tanh}, A: 2}},
		}
		if err := prog.Run(NewPool(1), out, []*Tensor{bias}); err != nil {
			t.Fatal(err)
		}
		if i, ok := sameBits(out.data, want.data); !ok {
			t.Fatalf("%v: element %d is %v, want %v", shape, i, out.data[i], want.data[i])
		}
	}
}

// TestProgramRefusesOperandsItCannotMap: a plain operand that broadens
// the output or its rank, or does not broadcast to it, and a window that
// does not fit its input are errors, not out-of-range reads.
func TestProgramRefusesOperandsItCannotMap(t *testing.T) {
	neg := Program{Loads: []Load{{In: 0}}, Code: []Instr{{Fn: ScalarFn{Op: Tanh}}}}
	for _, c := range []struct {
		name    string
		prog    Program
		in, out []int
	}{
		{"broadens the output", neg, []int{4, 16}, []int{4, 1}},
		{"broadens its rank", neg, []int{1, 4, 16}, []int{4, 16}},
		{"broadens its rank by a trailing axis", neg, []int{2, 3, 7, 1}, []int{2, 3, 7}},
		{"broadens a scalar", neg, []int{5}, []int{}},
		{"does not broadcast", neg, []int{4, 8}, []int{4, 16}},
		{"a column as a row", neg, []int{6}, []int{6, 1}},
		{"a column as a row, kept rank", neg, []int{1, 6}, []int{6, 1}},
		{"a leading axis that does not broadcast", neg, []int{3, 1}, []int{2, 4, 7}},
		{"window past its row", Program{Loads: []Load{{In: 0, Window: true, Col: 5, RowStride: 8}}, Code: neg.Code}, []int{4, 8}, []int{4, 4}},
		{"window of another row count", Program{Loads: []Load{{In: 0, Window: true, Col: 0, RowStride: 8}}, Code: neg.Code}, []int{3, 8}, []int{4, 4}},
		{"window with a wrong row stride", Program{Loads: []Load{{In: 0, Window: true, Col: 0, RowStride: 6}}, Code: neg.Code}, []int{4, 8}, []int{4, 4}},
	} {
		if err := c.prog.Run(NewPool(1), New(c.out...), []*Tensor{New(c.in...)}); err == nil {
			t.Errorf("%s: %v into %v ran", c.name, c.in, c.out)
		}
	}
}

// TestPointwiseReadsEveryBroadcast: a plain operand of any shape that
// broadcasts to the output is read at the naive reference's index — the
// same shape, row, column and scalar broadcasts, and a broadcast along a
// leading axis alone, inside the leading axes or over several of them.
func TestPointwiseReadsEveryBroadcast(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, c := range []struct{ in, out []int }{
		{[]int{4, 16}, []int{4, 16}},           // same shape
		{[]int{4, 1}, []int{4, 16}},            // row broadcast
		{[]int{16}, []int{4, 16}},              // column broadcast (bias)
		{[]int{1, 16}, []int{4, 16}},           // column broadcast, kept rank
		{[]int{}, []int{4, 16}},                // scalar
		{[]int{1, 1}, []int{4, 16}},            // scalar, kept rank
		{[]int{2, 3, 1}, []int{2, 3, 7}},       // row broadcast over two leading axes
		{[]int{1, 1, 7}, []int{2, 3, 7}},       // bias of a rank-3 output
		{[]int{}, []int{}},                     // scalar of a scalar
		{[]int{3, 1}, []int{2, 3, 7}},          // broadcast along one leading axis
		{[]int{1, 3, 7}, []int{2, 3, 7}},       // a positional table: (1,S,d) under (B,S,d)
		{[]int{2, 1, 7}, []int{2, 3, 7}},       // broadcast inside the leading axes: (B,1,d)
		{[]int{1, 3, 1}, []int{2, 3, 7}},       // the same, row-wise
		{[]int{2, 1, 3, 1}, []int{2, 4, 3, 5}}, // alternating axes
		{[]int{1}, []int{2, 3, 7}},             // scalar, rank 1
		{[]int{7}, []int{1, 1, 7}},             // one row
		{[]int{6, 1}, []int{6, 1}},             // one column
		{[]int{1}, []int{6, 1}},                // one column, scalar
		{[]int{1, 300}, []int{3, 2, 300}},      // row tiles under a leading broadcast
	} {
		a := RandNormal(rng, 0, 1, c.out...)
		b := RandNormal(rng, 0, 1, c.in...)
		for _, args := range [][2]*Tensor{{a, b}, {b, a}} {
			got := Full(float32(math.NaN()), c.out...)
			if err := PointwiseInto(NewPool(1), got, ScalarFn{Op: Sub}, args[0], args[1]); err != nil {
				t.Fatalf("%v against %v: %v", c.in, c.out, err)
			}
			want := naivePointwise(c.out, ScalarFn{Op: Sub}, args[0], args[1])
			if i, ok := sameBits(got.data, want.data); !ok {
				t.Fatalf("%v against %v: element %d is %v, naive %v", c.in, c.out, i, got.data[i], want.data[i])
			}
		}
	}
}

// TestProgramAllocatesNothing: a width-1 run builds no closure and no
// slice.
func TestProgramAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, cs := RandNormal(rng, 0, 1, 4, 64), RandNormal(rng, 0, 1, 4, 16)
	in := []*Tensor{g, cs, New(4, 1), Ones(16), Scalar(2)}
	out := New(4, 16)
	prog := cellProgram(16)
	p := NewPool(1)
	if allocs := testing.AllocsPerRun(20, func() {
		if err := prog.Run(p, out, in); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a width-1 run allocates %v objects", allocs)
	}
}

// TestPointwiseAllocatesNothing: a width-1 call of the entry point
// builds its program on the stack and runs it inline, for a relu, a
// bias add, a broadcast along a leading axis and a four-operand fold.
func TestPointwiseAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := NewPool(1)
	for _, c := range []struct {
		op     Opcode
		shapes [][]int
	}{
		{Relu, [][]int{{4, 16}}},
		{Add, [][]int{{4, 16}, {16}}},
		{Add, [][]int{{2, 3, 7}, {1, 3, 7}}},
		{Add, [][]int{{4, 16}, {4, 16}, {4, 16}, {16}}},
	} {
		var in []*Tensor
		for _, s := range c.shapes {
			in = append(in, RandNormal(rng, 0, 1, s...))
		}
		out := New(c.shapes[0]...)
		if allocs := testing.AllocsPerRun(20, func() {
			if err := PointwiseInto(p, out, ScalarFn{Op: c.op}, in...); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("opcode %d over %v allocates %v objects per call at width 1, want 0", c.op, c.shapes, allocs)
		}
	}
}

// FuzzPointwise: the entry point over every opcode, a fuzzed constant
// for Pow and Huber, binary opcodes folding 2–5 operands, fuzzed output
// ranks 0–4 and operands that broadcast to the output — a leading axis
// dropped or held at 1, as a (1,S,d) or (B,1,d) operand is — with NaN,
// ±Inf and −0 poisoned in, gives the naive reference's bits at widths 1
// and 2, NaNs of any payload counted equal. ReluGrad routes a gradient
// alike by a Relu's input and by its output. An operand shape made not to
// broadcast, or to broaden the output's rank, is an error and not a
// panic.
func FuzzPointwise(f *testing.F) {
	f.Add(uint8(3), uint32(0x4321), uint64(0), uint16(Add), float32(0), []byte{}, int64(1))
	f.Add(uint8(3), uint32(0x1356), uint64(0x0101), uint16(Mul), float32(0), []byte{0, 1, 9, 2}, int64(2))
	f.Add(uint8(2), uint32(0x2f), uint64(0x0200), uint16(Maximum), float32(0), []byte{5, 3}, int64(3))
	f.Add(uint8(0x82), uint32(0x35), uint64(0x0002), uint16(Div), float32(0), []byte{3, 4, 200, 5, 77, 6}, int64(4))
	f.Add(uint8(4), uint32(0xabcd), uint64(0x1010), uint16(Tanh), float32(0), []byte{}, int64(5))
	f.Add(uint8(3), uint32(0x333), uint64(0x08000010), uint16(Add)|3<<8, float32(0), []byte{1, 2, 100, 6, 250, 11}, int64(6))
	f.Add(uint8(2), uint32(0x55), uint64(0), uint16(ReluGrad), float32(0), []byte{0, 4, 64, 5, 128, 6, 192, 7}, int64(7))
	f.Add(uint8(2), uint32(0x66), uint64(0), uint16(Huber), float32(0.5), []byte{0, 0, 9, 3}, int64(8))
	f.Add(uint8(1), uint32(0x7), uint64(0), uint16(Pow), float32(2.5), []byte{0, 3, 90, 2}, int64(9))
	ex := sched.New(1)
	f.Cleanup(ex.Close)
	pools := map[int]*Pool{1: NewPool(1), 2: NewParallelPool(2, ex)}
	poison := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), float32(math.Copysign(0, -1))}
	f.Fuzz(func(t *testing.T, rankB uint8, dims uint32, masks uint64, op uint16, c float32, poisons []byte, seed int64) {
		// The output: rank 0–4, each extent 1–7 or, one time in sixteen, 0.
		// The high bit widens the last two axes, so the run splits into
		// row tiles and chunks.
		out := make([]int, rankB%5)
		for k := range out {
			v := int(dims >> (4 * k) & 15)
			out[k] = v%7 + 1
			if v == 15 {
				out[k] = 0
			}
		}
		if rankB&0x80 != 0 && len(out) >= 2 {
			out[len(out)-1] += 300
			out[len(out)-2] *= 40
		}
		// The low byte of op picks the opcode; the high byte, for a
		// binary one, folds 2–5 operands.
		fn := ScalarFn{Op: Opcode(op & 0xff % uint16(numOpcodes)), C: c}
		arity := fn.Arity()
		if arity == 2 {
			arity += int(op>>8) % 4
		}
		// An operand's mask byte: bits 0–2 drop leading axes, bits 3–5
		// hold axes at 1, bit 6 prepends an axis of 2 and bit 7 bends one
		// extent, most often so that it no longer broadcasts.
		rng := rand.New(rand.NewSource(seed))
		var in []*Tensor
		for j := 0; j < arity; j++ {
			m := int(masks >> (8 * j) & 0xff)
			shape := append([]int(nil), out[min(m&7%5, len(out)):]...)
			for k := range shape {
				if m>>(3+k%3)&1 != 0 {
					shape[k] = 1
				}
			}
			if m&0x80 != 0 && len(shape) > 0 {
				shape[int(dims>>20)%len(shape)] += 2
			}
			if m&0x40 != 0 {
				shape = append([]int{2}, shape...)
			}
			x := RandNormal(rng, 0, 1, shape...)
			for i := 0; i+1 < len(poisons) && len(x.data) > 0; i += 2 {
				if int(poisons[i+1]>>2)%arity == j {
					x.data[int(poisons[i])*len(x.data)/256] = poison[poisons[i+1]&3]
				}
			}
			in = append(in, x)
		}
		want, err := in[0].shape, error(nil)
		for _, x := range in[1:] {
			if err == nil {
				want, err = BroadcastShapes(want, x.shape)
			}
		}
		for w, p := range pools {
			got := Full(float32(math.NaN()), out...)
			gotErr := PointwiseInto(p, got, fn, in...)
			if err != nil || !SameShape(want, out) {
				if gotErr == nil {
					t.Fatalf("opcode %d over %v into %v at width %d: no error", fn.Op, shapesOf(in), out, w)
				}
				continue
			}
			if gotErr != nil {
				t.Fatalf("opcode %d over %v into %v at width %d: %v", fn.Op, shapesOf(in), out, w, gotErr)
			}
			ref := naivePointwise(out, fn, in...)
			if i, ok := sameBits(got.data, ref.data); !ok {
				t.Fatalf("opcode %d over %v into %v at width %d: element %d is %v, naive %v", fn.Op, shapesOf(in), out, w, i, got.data[i], ref.data[i])
			}
			if fn.Op != ReluGrad || len(in) != 2 {
				continue
			}
			y, byOut := New(in[1].shape...), New(out...)
			if err := PointwiseInto(p, y, ScalarFn{Op: Relu}, in[1]); err != nil {
				t.Fatal(err)
			}
			if err := PointwiseInto(p, byOut, fn, in[0], y); err != nil {
				t.Fatal(err)
			}
			if i, ok := sameBits(byOut.data, got.data); !ok {
				t.Fatalf("%v at width %d: ReluGrad by the output is %v at element %d, by the input %v", out, w, byOut.data[i], i, got.data[i])
			}
		}
	})
}

func shapesOf(in []*Tensor) [][]int {
	var s [][]int
	for _, t := range in {
		s = append(s, t.shape)
	}
	return s
}
