package tensor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sched"
)

func TestAffineOperand(t *testing.T) {
	for _, c := range []struct {
		in, out []int
		want    bool
	}{
		{[]int{4, 16}, []int{4, 16}, true},         // same shape
		{[]int{4, 1}, []int{4, 16}, true},          // row broadcast
		{[]int{16}, []int{4, 16}, true},            // column broadcast (bias)
		{[]int{1, 16}, []int{4, 16}, true},         // column broadcast, kept rank
		{[]int{}, []int{4, 16}, true},              // scalar
		{[]int{1, 1}, []int{4, 16}, true},          // scalar, kept rank
		{[]int{2, 3, 1}, []int{2, 3, 7}, true},     // row broadcast over two leading axes
		{[]int{1, 1, 7}, []int{2, 3, 7}, true},     // bias of a rank-3 output
		{[]int{}, []int{}, true},                   // scalar of a scalar
		{[]int{3, 1}, []int{2, 3, 7}, false},       // broadcast along one leading axis only
		{[]int{1, 3, 7}, []int{2, 3, 7}, false},    // the same
		{[]int{4, 16}, []int{4, 1}, false},         // broadens the output
		{[]int{1, 4, 16}, []int{4, 16}, false},     // broadens its rank
		{[]int{4, 8}, []int{4, 16}, false},         // does not broadcast
		{[]int{5}, []int{}, false},                 // broadens a scalar
		{[]int{2, 1, 7}, []int{2, 3, 7}, false},    // broadcast inside the leading axes
		{[]int{1, 3, 1}, []int{2, 3, 7}, false},    // the same, row-wise
		{[]int{2, 3, 7}, []int{2, 3, 7}, true},     // same shape, rank 3
		{[]int{1}, []int{2, 3, 7}, true},           // scalar, rank 1
		{[]int{7}, []int{1, 1, 7}, true},           // one row: any leading map
		{[]int{6, 1}, []int{6, 1}, true},           // one column
		{[]int{1}, []int{6, 1}, true},              // one column, scalar
		{[]int{6}, []int{6, 1}, false},             // a column as a row: does not broadcast
		{[]int{1, 6}, []int{6, 1}, false},          // the same, kept rank
		{[]int{6, 1}, []int{6, 6}, true},           // row broadcast, square
		{[]int{6}, []int{6, 6}, true},              // column broadcast, square
		{[]int{1, 1, 1}, []int{2, 3, 7}, true},     // scalar, kept rank
		{[]int{2, 3, 7, 1}, []int{2, 3, 7}, false}, // broadens its rank
	} {
		if got := AffineOperand(c.in, c.out); got != c.want {
			t.Errorf("AffineOperand(%v, %v) = %t, want %t", c.in, c.out, got, c.want)
		}
	}
}

func sigmoid32(x float32) float32 { return float32(1 / (1 + math.Exp(-float64(x)))) }
func tanh32(x float32) float32    { return float32(math.Tanh(float64(x))) }
func add32(x, y float32) float32  { return x + y }
func sub32(x, y float32) float32  { return x - y }
func mul32(x, y float32) float32  { return x * y }
func div32(x, y float32) float32  { return x / y }

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
			{Fn: ScalarFn{Un: sigmoid32}, A: 0},     // 7  f
			{Fn: ScalarFn{Bin: mul32}, A: 7, B: 3},  // 8  f·cs
			{Fn: ScalarFn{Un: sigmoid32}, A: 1},     // 9  i
			{Fn: ScalarFn{Un: tanh32}, A: 2},        // 10 cand
			{Fn: ScalarFn{Bin: mul32}, A: 9, B: 10}, // 11 i·cand
			{Fn: ScalarFn{Bin: add32}, A: 8, B: 11}, // 12 cs'
			{Fn: ScalarFn{Bin: sub32}, A: 12, B: 4}, // 13
			{Fn: ScalarFn{Bin: mul32}, A: 13, B: 5}, // 14
			{Fn: ScalarFn{Bin: div32}, A: 14, B: 6}, // out
		},
	}
}

// cellUnfused is cellProgram one op at a time, through the unfused
// kernels.
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
	un := func(fn func(float32) float32, a *Tensor) *Tensor {
		out := New(a.shape...)
		if err := UnaryOpInto(p, out, a, fn); err != nil {
			t.Fatal(err)
		}
		return out
	}
	bin := func(fn func(x, y float32) float32, a, b *Tensor) *Tensor {
		out := New(rows, c)
		if err := BinaryOpInto(p, out, a, b, fn); err != nil {
			t.Fatal(err)
		}
		return out
	}
	next := bin(add32, bin(mul32, un(sigmoid32, slice(1)), cs), bin(mul32, un(sigmoid32, slice(0)), un(tanh32, slice(3))))
	return bin(div32, bin(mul32, bin(sub32, next, r), bias), s)
}

// TestProgramMatchesUnfusedOps: the block evaluator gives the unfused
// ops' bits for every load kind — windows, same shape, row and column
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
				t.Fatalf("%dx%d at width %d: element %d is %v, unfused %v", rows, c, w, i, got.data[i], want.data[i])
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
		want := New(out.shape...)
		if err := BinaryOpInto(NewPool(1), want, out, bias, add32); err != nil {
			t.Fatal(err)
		}
		if err := UnaryOpInto(NewPool(1), want, want.Clone(), tanh32); err != nil {
			t.Fatal(err)
		}
		prog := Program{
			Loads: []Load{{In: Dest}, {In: 0}},
			Code:  []Instr{{Fn: ScalarFn{Bin: add32}, A: 0, B: 1}, {Fn: ScalarFn{Un: tanh32}, A: 2}},
		}
		if err := prog.Run(NewPool(1), out, []*Tensor{bias}); err != nil {
			t.Fatal(err)
		}
		if i, ok := sameBits(out.data, want.data); !ok {
			t.Fatalf("%v: element %d is %v, want %v", shape, i, out.data[i], want.data[i])
		}
	}
}

// TestProgramRefusesOperandsItCannotMap: a plain operand that is not an
// affine read of the output and a window that does not fit its input are
// errors, not out-of-range reads.
func TestProgramRefusesOperandsItCannotMap(t *testing.T) {
	neg := Program{Loads: []Load{{In: 0}}, Code: []Instr{{Fn: ScalarFn{Un: tanh32}}}}
	for _, c := range []struct {
		name string
		prog Program
		in   *Tensor
		out  *Tensor
	}{
		{"broadcast along one leading axis", neg, New(3, 1), New(2, 3, 7)},
		{"broadens the output", neg, New(4, 8), New(4, 1)},
		{"window past its row", Program{Loads: []Load{{In: 0, Window: true, Col: 5, RowStride: 8}}, Code: neg.Code}, New(4, 8), New(4, 4)},
		{"window of another row count", Program{Loads: []Load{{In: 0, Window: true, Col: 0, RowStride: 8}}, Code: neg.Code}, New(3, 8), New(4, 4)},
		{"window with a wrong row stride", Program{Loads: []Load{{In: 0, Window: true, Col: 0, RowStride: 6}}, Code: neg.Code}, New(4, 8), New(4, 4)},
	} {
		if err := c.prog.Run(NewPool(1), c.out, []*Tensor{c.in}); err == nil {
			t.Errorf("%s: ran", c.name)
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
