package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sched"
)

func TestReduceSumAll(t *testing.T) {
	p := NewPool(1)
	in := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	out, err := Reduce(p, in, nil, false, "sum")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rank() != 0 || out.Data()[0] != 21 {
		t.Fatalf("sum all = %v", out)
	}
}

func TestReduceSumAxis(t *testing.T) {
	p := NewPool(1)
	in := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	out, err := Reduce(p, in, []int{0}, false, "sum")
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{5, 7, 9}
	for i := range want {
		if out.Data()[i] != want[i] {
			t.Fatalf("sum axis0 = %v want %v", out.Data(), want)
		}
	}
	out1, _ := Reduce(p, in, []int{1}, false, "sum")
	if out1.Data()[0] != 6 || out1.Data()[1] != 15 {
		t.Fatalf("sum axis1 = %v", out1.Data())
	}
	// Negative axis.
	outn, _ := Reduce(p, in, []int{-1}, false, "sum")
	if outn.Data()[0] != 6 || outn.Data()[1] != 15 {
		t.Fatalf("sum axis -1 = %v", outn.Data())
	}
}

func TestReduceKeepDims(t *testing.T) {
	p := NewPool(1)
	in := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	out, err := Reduce(p, in, []int{1}, true, "sum")
	if err != nil {
		t.Fatal(err)
	}
	if !SameShape(out.Shape(), []int{2, 1}) {
		t.Fatalf("keepdims shape %v", out.Shape())
	}
}

func TestReduceMeanMax(t *testing.T) {
	p := NewPool(1)
	in := FromSlice([]float32{1, 5, 3, -2}, 4)
	mean, _ := Reduce(p, in, nil, false, "mean")
	if mean.Data()[0] != 1.75 {
		t.Fatalf("mean = %v", mean.Data())
	}
	mx, _ := Reduce(p, in, nil, false, "max")
	if mx.Data()[0] != 5 {
		t.Fatalf("max = %v", mx.Data())
	}
}

func TestReduceAxisOutOfRange(t *testing.T) {
	p := NewPool(1)
	if _, err := Reduce(p, New(2, 2), []int{5}, false, "sum"); err == nil {
		t.Fatal("expected axis error")
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	p := NewPool(1)
	rng := rand.New(rand.NewSource(8))
	in := RandNormal(rng, 0, 3, 5, 7)
	out := Softmax(p, in)
	for r := 0; r < 5; r++ {
		var s float64
		for c := 0; c < 7; c++ {
			v := out.At(r, c)
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-4 {
			t.Fatalf("row %d sums to %v", r, s)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	p := NewPool(1)
	in := FromSlice([]float32{1000, 1000, 1000}, 1, 3)
	out := Softmax(p, in)
	for _, v := range out.Data() {
		if math.Abs(float64(v)-1.0/3) > 1e-5 {
			t.Fatalf("large-logit softmax wrong: %v", out.Data())
		}
	}
}

func TestArgMax(t *testing.T) {
	in := FromSlice([]float32{1, 9, 3, 7, 2, 8}, 2, 3)
	out := stale(2)
	ArgMaxInto(out, in)
	if out.Data()[0] != 1 || out.Data()[1] != 2 {
		t.Fatalf("argmax = %v", out.Data())
	}
}

// Property: softmax is shift-invariant: softmax(x) == softmax(x + c).
func TestSoftmaxShiftInvarianceQuick(t *testing.T) {
	p := NewPool(1)
	rng := rand.New(rand.NewSource(9))
	f := func(c0 int8) bool {
		c := float32(c0) / 8
		x := RandNormal(rng, 0, 2, 3, 5)
		shifted := x.Clone()
		UnaryOpInPlace(p, shifted, func(v float32) float32 { return v + c })
		return AllClose(Softmax(p, x), Softmax(p, shifted), 1e-4, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Reduce(sum, axis) then total equals Reduce(sum, all).
func TestReduceSumDecompositionQuick(t *testing.T) {
	p := NewPool(1)
	rng := rand.New(rand.NewSource(10))
	f := func(r0, c0 uint8) bool {
		r, c := int(r0%5)+1, int(c0%5)+1
		x := RandNormal(rng, 0, 1, r, c)
		partial, err := Reduce(p, x, []int{0}, false, "sum")
		if err != nil {
			return false
		}
		total1, err := Reduce(p, partial, nil, false, "sum")
		if err != nil {
			return false
		}
		total2, err := Reduce(p, x, nil, false, "sum")
		if err != nil {
			return false
		}
		return math.Abs(float64(total1.Data()[0]-total2.Data()[0])) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestReduceAllDeterministicAcrossWidths: the full-reduction path
// combines chunk partials in chunk order, so sum/mean/max bits match
// across the serial pool, the modeled pool and real parallel pools of
// any width.
func TestReduceAllDeterministicAcrossWidths(t *testing.T) {
	ex := sched.New(4)
	defer ex.Close()
	rng := rand.New(rand.NewSource(19))
	in := New(64, 512) // big enough that reduceGrain splits it
	for i := range in.Data() {
		in.Data()[i] = rng.Float32()*2 - 1
	}
	pools := map[string]*Pool{
		"serial-1":    NewPool(1),
		"serial-8":    NewPool(8),
		"parallel-2":  NewParallelPool(2, ex),
		"parallel-4":  NewParallelPool(4, ex),
		"parallel-16": NewParallelPool(16, ex),
	}
	for _, kind := range []string{"sum", "mean", "max"} {
		ref, err := Reduce(NewPool(1), in, nil, false, kind)
		if err != nil {
			t.Fatal(err)
		}
		for name, p := range pools {
			got, err := Reduce(p, in, nil, false, kind)
			if err != nil {
				t.Fatal(err)
			}
			if got.Data()[0] != ref.Data()[0] {
				t.Fatalf("%s %s: %v != %v", kind, name, got.Data()[0], ref.Data()[0])
			}
		}
	}
}

// TestReduceAllMatchesFloat64 keeps the chunked sum honest against a
// float64 reference within float32 tolerance.
func TestReduceAllMatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	in := New(40000)
	var want float64
	for i := range in.Data() {
		v := rng.Float32()
		in.Data()[i] = v
		want += float64(v)
	}
	got, err := Reduce(NewPool(1), in, nil, false, "sum")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(got.Data()[0])-want)/want > 1e-4 {
		t.Fatalf("chunked sum %v vs float64 %v", got.Data()[0], want)
	}
}
