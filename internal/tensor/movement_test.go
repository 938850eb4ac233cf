package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// stale returns a destination holding data no kernel may let through.
func stale(shape ...int) *Tensor { return Full(float32(math.NaN()), shape...) }

func TestTranspose2D(t *testing.T) {
	p := NewPool(1)
	in := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	out := stale(3, 2)
	if err := TransposeInto(p, out, in, []int{1, 0}); err != nil {
		t.Fatal(err)
	}
	if out.At(0, 1) != 4 || out.At(2, 0) != 3 {
		t.Fatalf("transpose values wrong: %v", out.Data())
	}
}

func TestTransposeGeneralPerm(t *testing.T) {
	p := NewPool(1)
	rng := rand.New(rand.NewSource(11))
	in := RandNormal(rng, 0, 1, 2, 3, 4)
	out := stale(4, 2, 3)
	if err := TransposeInto(p, out, in, []int{2, 0, 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				if out.At(k, i, j) != in.At(i, j, k) {
					t.Fatal("permuted element mismatch")
				}
			}
		}
	}
}

func TestTransposeBadPerm(t *testing.T) {
	p := NewPool(1)
	if err := TransposeInto(p, New(2, 2), New(2, 2), []int{0, 0}); err == nil {
		t.Fatal("expected bad-perm error")
	}
	if err := TransposeInto(p, New(2, 2), New(2, 2), []int{0}); err == nil {
		t.Fatal("expected rank error")
	}
	if err := TransposeInto(p, New(2, 3), New(2, 3), []int{1, 0}); err == nil {
		t.Fatal("expected destination shape error")
	}
}

// Property: transposing twice with the inverse permutation restores
// the original tensor.
func TestTransposeInvolutionQuick(t *testing.T) {
	p := NewPool(1)
	rng := rand.New(rand.NewSource(12))
	f := func(a0, b0, c0 uint8) bool {
		a, b, c := int(a0%3)+1, int(b0%3)+1, int(c0%3)+1
		x := RandNormal(rng, 0, 1, a, b, c)
		perm := []int{2, 0, 1}
		inv := []int{1, 2, 0}
		y, z := stale(c, a, b), stale(a, b, c)
		if TransposeInto(p, y, x, perm) != nil || TransposeInto(p, z, y, inv) != nil {
			return false
		}
		return AllClose(x, z, 0, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTile(t *testing.T) {
	p := NewPool(1)
	in := FromSlice([]float32{1, 2}, 1, 2)
	out := stale(2, 6)
	if err := TileInto(p, out, in, []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := TileInto(p, stale(2, 5), in, []int{2, 3}); err == nil {
		t.Fatal("expected destination shape error")
	}
	want := []float32{1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2}
	for i := range want {
		if out.Data()[i] != want[i] {
			t.Fatalf("tile = %v", out.Data())
		}
	}
}

func TestTileGradReduce(t *testing.T) {
	p := NewPool(1)
	grad := Ones(2, 6)
	g := stale(1, 2)
	if err := SumToInto(p, g, grad); err != nil {
		t.Fatal(err)
	}
	if g.Data()[0] != 6 || g.Data()[1] != 6 {
		t.Fatalf("tile grad = %v", g.Data())
	}
}

// Property: Tile then SumToInto with all-ones grad multiplies each
// element count by the product of multiples.
func TestTileAdjointQuick(t *testing.T) {
	p := NewPool(1)
	rng := rand.New(rand.NewSource(13))
	f := func(m0, n0 uint8) bool {
		m, n := int(m0%3)+1, int(n0%3)+1
		x := RandNormal(rng, 0, 1, 2, 3)
		tiled, back := stale(2*m, 3*n), stale(2, 3)
		if TileInto(p, tiled, x, []int{m, n}) != nil {
			return false
		}
		if SumToInto(p, back, Ones(tiled.Shape()...)) != nil {
			return false
		}
		for _, v := range back.Data() {
			if v != float32(m*n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConcatAxis0And1(t *testing.T) {
	p := NewPool(1)
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6}, 1, 2)
	out := stale(3, 2)
	if err := ConcatInto(p, out, 0, a, b); err != nil {
		t.Fatal(err)
	}
	if out.At(0, 0) != 1 || out.At(2, 1) != 6 {
		t.Fatalf("concat0 = %v", out.Data())
	}
	c := FromSlice([]float32{7, 8}, 2, 1)
	out1 := stale(2, 3)
	if err := ConcatInto(p, out1, 1, a, c); err != nil {
		t.Fatal(err)
	}
	if out1.At(1, 1) != 4 || out1.At(0, 2) != 7 || out1.At(1, 2) != 8 {
		t.Fatalf("concat1 = %v", out1.Data())
	}
}

func TestConcatErrors(t *testing.T) {
	p := NewPool(1)
	if err := ConcatInto(p, New(2, 2), 0); err == nil {
		t.Fatal("expected empty-input error")
	}
	if err := ConcatInto(p, New(4, 2), 0, New(2, 2), New(2, 3)); err == nil {
		t.Fatal("expected shape mismatch error")
	}
	if err := ConcatInto(p, New(2, 2), 5, New(2, 2)); err == nil {
		t.Fatal("expected axis error")
	}
	if err := ConcatInto(p, New(3, 2), 0, New(2, 2), New(2, 2)); err == nil {
		t.Fatal("expected destination shape error")
	}
}

func TestSliceTensor(t *testing.T) {
	p := NewPool(1)
	in := FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 3, 3)
	out := stale(2, 2)
	if err := SliceTensorInto(p, out, in, []int{1, 0}, []int{2, 2}); err != nil {
		t.Fatal(err)
	}
	want := []float32{4, 5, 7, 8}
	for i := range want {
		if out.Data()[i] != want[i] {
			t.Fatalf("slice = %v", out.Data())
		}
	}
	// -1 size means "rest of axis".
	out2 := stale(3, 2)
	if err := SliceTensorInto(p, out2, in, []int{0, 1}, []int{-1, -1}); err != nil {
		t.Fatal(err)
	}
	if out2.At(0, 0) != 2 || out2.At(2, 1) != 9 {
		t.Fatalf("slice rest = %v", out2.Data())
	}
}

func TestSliceOutOfBounds(t *testing.T) {
	p := NewPool(1)
	if err := SliceTensorInto(p, New(2, 1), New(2, 2), []int{1, 1}, []int{2, 1}); err == nil {
		t.Fatal("expected bounds error")
	}
	if err := SliceTensorInto(p, New(2, 1), New(2, 2), []int{1, 1}, []int{1, 1}); err == nil {
		t.Fatal("expected destination shape error")
	}
}

func TestPad(t *testing.T) {
	p := NewPool(1)
	in := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	out := stale(3, 3)
	if err := PadInto(p, out, in, []int{1, 0}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := PadInto(p, stale(3, 2), in, []int{1, 0}, []int{0, 1}); err == nil {
		t.Fatal("expected destination shape error")
	}
	if out.At(0, 0) != 0 || out.At(1, 0) != 1 || out.At(2, 1) != 4 || out.At(1, 2) != 0 {
		t.Fatalf("pad = %v", out.Data())
	}
}

func TestGatherRowsAndScatterAdd(t *testing.T) {
	p := NewPool(1)
	params := FromSlice([]float32{
		1, 2,
		3, 4,
		5, 6,
	}, 3, 2)
	idx := FromSlice([]float32{2, 0, 2}, 3)
	out := stale(3, 2)
	if err := GatherRowsInto(p, out, params, idx); err != nil {
		t.Fatal(err)
	}
	want := []float32{5, 6, 1, 2, 5, 6}
	for i := range want {
		if out.Data()[i] != want[i] {
			t.Fatalf("gather = %v", out.Data())
		}
	}
	grad := Ones(3, 2)
	back := stale(3, 2)
	ScatterAddRowsInto(p, back, grad, idx)
	// Row 2 was gathered twice → grad 2; row 0 once; row 1 never.
	if back.At(2, 0) != 2 || back.At(0, 0) != 1 || back.At(1, 0) != 0 {
		t.Fatalf("scatter = %v", back.Data())
	}
}

func TestGatherRowsOutOfRange(t *testing.T) {
	p := NewPool(1)
	if err := GatherRowsInto(p, New(1, 2), New(2, 2), FromSlice([]float32{5}, 1)); err == nil {
		t.Fatal("expected index error")
	}
	if err := GatherRowsInto(p, New(2, 2), New(2, 2), FromSlice([]float32{1}, 1)); err == nil {
		t.Fatal("expected destination shape error")
	}
}

func TestGatherRows2DIndices(t *testing.T) {
	p := NewPool(1)
	params := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	idx := FromSlice([]float32{0, 1, 1, 0}, 2, 2)
	out := stale(2, 2, 2)
	if err := GatherRowsInto(p, out, params, idx); err != nil {
		t.Fatal(err)
	}
	if out.At(0, 1, 0) != 3 || out.At(1, 1, 1) != 2 {
		t.Fatalf("gather 2d values %v", out.Data())
	}
}
