package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Size() != 6 || x.Rank() != 2 || x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatalf("unexpected metadata: %v", x)
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatalf("New not zero-filled: %v", x.Data())
		}
	}
}

func TestFromSliceAndAtSet(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if x.At(0, 0) != 1 || x.At(1, 2) != 6 || x.At(0, 2) != 3 {
		t.Fatalf("At wrong: %v", x)
	}
	x.Set(42, 1, 1)
	if x.At(1, 1) != 42 {
		t.Fatalf("Set failed")
	}
}

func TestFromSliceSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestScalar(t *testing.T) {
	s := Scalar(3.5)
	if s.Rank() != 0 || s.Size() != 1 || s.Data()[0] != 3.5 {
		t.Fatalf("bad scalar: %v", s)
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	y := x.Reshape(4)
	y.Data()[0] = 99
	if x.At(0, 0) != 99 {
		t.Fatal("Reshape must share storage")
	}
	if !SameShape(y.Shape(), []int{4}) {
		t.Fatalf("bad reshape shape %v", y.Shape())
	}
}

func TestReshapeBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).Reshape(5)
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Data()[0] = 7
	if x.Data()[0] != 1 {
		t.Fatal("Clone must copy storage")
	}
}

func TestStrides(t *testing.T) {
	s := Strides([]int{2, 3, 4})
	want := []int{12, 4, 1}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("Strides = %v, want %v", s, want)
		}
	}
}

func TestAllCloseAndMaxAbsDiff(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{1, 2.0005, 3}, 3)
	if !AllClose(a, b, 1e-3, 1e-3) {
		t.Fatal("should be close")
	}
	if AllClose(a, b, 0, 1e-6) {
		t.Fatal("should not be close at tight tolerance")
	}
	if d := MaxAbsDiff(a, b); math.Abs(d-0.0005) > 1e-4 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
	c := FromSlice([]float32{1, 2, 3}, 1, 3)
	if AllClose(a, c, 1, 1) {
		t.Fatal("different shapes must not be close")
	}
}

func TestAllCloseNaN(t *testing.T) {
	a := FromSlice([]float32{float32(math.NaN())}, 1)
	if AllClose(a, a, 1, 1) {
		t.Fatal("NaN must not compare close")
	}
}

// --- Broadcasting ---

func TestBroadcastShapes(t *testing.T) {
	cases := []struct {
		a, b, want []int
		err        bool
	}{
		{[]int{2, 3}, []int{2, 3}, []int{2, 3}, false},
		{[]int{2, 3}, []int{3}, []int{2, 3}, false},
		{[]int{2, 1}, []int{1, 5}, []int{2, 5}, false},
		{[]int{}, []int{4}, []int{4}, false},
		{[]int{2, 3}, []int{4}, nil, true},
	}
	for _, c := range cases {
		got, err := BroadcastShapes(c.a, c.b)
		if c.err != (err != nil) {
			t.Fatalf("BroadcastShapes(%v,%v) err=%v", c.a, c.b, err)
		}
		if err == nil && !SameShape(got, c.want) {
			t.Fatalf("BroadcastShapes(%v,%v)=%v want %v", c.a, c.b, got, c.want)
		}
	}
}

// binaryOp is fn over broadcast a and b into a new tensor, through the
// element-wise entry point.
func binaryOp(p *Pool, a, b *Tensor, op Opcode) (*Tensor, error) {
	shape, err := BroadcastShapes(a.shape, b.shape)
	if err != nil {
		return nil, err
	}
	out := New(shape...)
	return out, PointwiseInto(p, out, ScalarFn{Op: op}, a, b)
}

func TestBinaryOpSameShape(t *testing.T) {
	p := NewPool(1)
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{10, 20, 30, 40}, 2, 2)
	out, err := binaryOp(p, a, b, Add)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{11, 22, 33, 44}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("got %v want %v", out.Data(), want)
		}
	}
}

func TestBinaryOpScalar(t *testing.T) {
	p := NewPool(1)
	a := FromSlice([]float32{1, 2, 3}, 3)
	s := Scalar(2)
	out, err := binaryOp(p, a, s, Mul)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data()[2] != 6 {
		t.Fatalf("scalar broadcast wrong: %v", out.Data())
	}
	out2, err := binaryOp(p, s, a, Sub)
	if err != nil || out2.Data()[0] != 1 {
		t.Fatalf("scalar-first broadcast wrong: %v %v", out2, err)
	}
}

func TestBinaryOpBiasPattern(t *testing.T) {
	p := NewPool(1)
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	bias := FromSlice([]float32{10, 20, 30}, 3)
	out, err := binaryOp(p, a, bias, Add)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{11, 22, 33, 14, 25, 36}
	for i := range want {
		if out.Data()[i] != want[i] {
			t.Fatalf("bias add: got %v want %v", out.Data(), want)
		}
	}
}

func TestBinaryOpGeneralBroadcast(t *testing.T) {
	p := NewPool(1)
	a := FromSlice([]float32{1, 2}, 2, 1)
	b := FromSlice([]float32{10, 20, 30}, 1, 3)
	out, err := binaryOp(p, a, b, Add)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{11, 21, 31, 12, 22, 32}
	for i := range want {
		if out.Data()[i] != want[i] {
			t.Fatalf("general broadcast: got %v want %v", out.Data(), want)
		}
	}
}

func TestBinaryOpShapeError(t *testing.T) {
	p := NewPool(1)
	_, err := binaryOp(p, New(2, 3), New(4), Add)
	if err == nil {
		t.Fatal("expected broadcast error")
	}
}

func TestUnaryOp(t *testing.T) {
	p := NewPool(1)
	a := FromSlice([]float32{-1, 2, -3}, 3)
	out := New(3)
	err := PointwiseInto(p, out, ScalarFn{Op: Relu}, a)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data()[0] != 0 || out.Data()[1] != 2 || out.Data()[2] != 0 {
		t.Fatalf("relu wrong: %v", out.Data())
	}
}

func TestReduceGradToShape(t *testing.T) {
	p := NewPool(1)
	grad := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	reduce := func(shape ...int) *Tensor {
		out := Full(99, shape...)
		if err := SumToInto(p, out, grad); err != nil {
			t.Fatal(err)
		}
		return out
	}
	got := reduce(3)
	want := []float32{5, 7, 9}
	for i := range want {
		if got.Data()[i] != want[i] {
			t.Fatalf("SumToInto = %v want %v", got.Data(), want)
		}
	}
	got2 := reduce(2, 1)
	if got2.Data()[0] != 6 || got2.Data()[1] != 15 {
		t.Fatalf("keepdim reduce = %v", got2.Data())
	}
	// Same shape: every output is its own one-element chain.
	got3 := reduce(2, 3)
	if MaxAbsDiff(got3, grad) != 0 {
		t.Fatal("same-shape reduce should copy")
	}
	// A target that neither broadcasts nor tiles is refused.
	for _, bad := range [][]int{{2}, {4}, {1, 2, 3}, {0, 3}} {
		if err := SumToInto(p, New(bad...), grad); err == nil {
			t.Fatalf("SumToInto to %v accepted a gradient of %v", bad, grad.Shape())
		}
	}
}

// Property: for any broadcastable pair, a+b == b+a elementwise.
func TestBinaryOpCommutativityQuick(t *testing.T) {
	p := NewPool(1)
	rng := rand.New(rand.NewSource(7))
	f := func(r0, c0 uint8) bool {
		r := int(r0%4) + 1
		c := int(c0%4) + 1
		a := RandNormal(rng, 0, 1, r, c)
		b := RandNormal(rng, 0, 1, c) // broadcasts over rows
		x, err1 := binaryOp(p, a, b, Add)
		y, err2 := binaryOp(p, b, a, Add)
		if err1 != nil || err2 != nil {
			return false
		}
		return AllClose(x, y, 1e-6, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
