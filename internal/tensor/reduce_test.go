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
		for i, v := range shifted.Data() {
			shifted.Data()[i] = v + c
		}
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
// across the serial pool, the recorded pool and real parallel pools of
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

// TestForSumBitIdenticalAcrossWidths is the reduction half of the
// determinism contract: a full sum split into chunks combines the chunk
// partials in chunk order, giving the same float32 bits for the serial
// strategy at width 1, the recorded serial pool at width 4, and the
// parallel strategy at any width — and those bits are the chunk-ordered
// combination, not a linear fold.
func TestForSumBitIdenticalAcrossWidths(t *testing.T) {
	ex := sched.New(4)
	defer ex.Close()
	rng := rand.New(rand.NewSource(11))
	in := New(30000)
	id := in.Data()
	for i := range id {
		id[i] = rng.Float32()*2e3 - 1e3
	}
	sum := func(p *Pool) float32 {
		out, err := Reduce(p, in, nil, false, "sum")
		if err != nil {
			t.Fatal(err)
		}
		return out.Data()[0]
	}
	want := sum(NewPool(1))
	for name, p := range map[string]*Pool{
		"serial-w4":   NewPool(4),
		"parallel-w2": NewParallelPool(2, ex),
		"parallel-w4": NewParallelPool(4, ex),
		"parallel-w8": NewParallelPool(8, ex),
	} {
		if got := sum(p); got != want {
			t.Fatalf("%s: sum %v != serial %v", name, got, want)
		}
	}
	chunks := regionChunks(len(id), reduceGrain)
	var ref float32
	for c := 0; c < chunks; c++ {
		lo, hi := chunkBounds(len(id), chunks, c)
		var s float32
		for _, v := range id[lo:hi] {
			s += v
		}
		ref += s
	}
	if chunks < 2 || want != ref {
		t.Fatalf("sum over %d chunks is %v, the chunk-ordered combination %v", chunks, want, ref)
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

// TestMaxNaNRule: every Max — full, per row, per column — is the v > m
// fold from negInf, so a NaN is skipped wherever it sits: the first
// element, inside a chunk, or at a chunk start (a full reduction of
// 4×5000 splits into chunks of 5000; per column, into one row each).
func TestMaxNaNRule(t *testing.T) {
	ex := sched.New(3)
	defer ex.Close()
	pools := map[string]*Pool{"1": NewPool(1), "recorded-4": NewPool(4), "parallel-4": NewParallelPool(4, ex)}
	fold := func(vs ...float32) float32 {
		m := negInf
		for _, v := range vs {
			if v > m {
				m = v
			}
		}
		return m
	}
	const rows, cols = 4, 5000
	for _, nanAt := range []int{0, 5, 10000} {
		rng := rand.New(rand.NewSource(int64(nanAt)))
		in := RandUniform(rng, -5, 5, rows, cols)
		id := in.Data()
		id[nanAt] = float32(math.NaN())
		rowMax, colMax := make([]float32, rows), make([]float32, cols)
		for r := range rowMax {
			rowMax[r] = fold(id[r*cols : (r+1)*cols]...)
		}
		for c := range colMax {
			colMax[c] = fold(id[c], id[cols+c], id[2*cols+c], id[3*cols+c])
		}
		for name, p := range pools {
			for _, tc := range []struct {
				axes []int
				want []float32
			}{{nil, []float32{fold(id...)}}, {[]int{1}, rowMax}, {[]int{0}, colMax}} {
				got, err := Reduce(p, in, tc.axes, false, "max")
				if err != nil {
					t.Fatal(err)
				}
				if i, ok := sameBits(got.Data(), tc.want); !ok {
					t.Fatalf("NaN at %d, pool %s, axes %v: output %d is %v, the fold from negInf gives %v",
						nanAt, name, tc.axes, i, got.Data()[i], tc.want[i])
				}
			}
		}
	}
}

// FuzzReduce drives ReduceInto and SumToInto over shapes of rank ≤ 5
// with dims 0–9: an axis set (bytes as signed axes, some out of range),
// keepDims and the kind, and a tile or broadcast target built per axis
// from tile (kept, broadcast, a divisor, a non-divisor, or dropped as a
// leading axis). Neither may panic; a bad axis, a target that does not
// tile and a layout past maxBlocks must be errors. Results must be
// bit-equal across a width-1, a recorded width-4 and a parallel width-4
// pool; Max must equal the naive v > m fold from negInf and Sum a
// float64 reference within float32 tolerance. Values are half-integers
// in [-1.5, 1.5], -0 included, so Max sees ties and signed zeros.
func FuzzReduce(f *testing.F) {
	f.Add([]byte{4, 5, 6}, []byte{1}, false, uint8(0), []byte{0, 1, 0}, int64(1))
	f.Add([]byte{9, 9, 9, 9, 9}, []byte{0, 2, 4}, true, uint8(2), []byte{1, 0, 1, 0, 1}, int64(2))
	f.Add([]byte{8, 1, 9, 0}, []byte{}, false, uint8(1), []byte{4, 4, 4, 4}, int64(3))
	f.Add([]byte{6, 6, 6, 6, 6}, []byte{0x80, 7}, false, uint8(0), []byte{2, 2, 2, 2, 2}, int64(4))
	ex := sched.New(3)
	f.Cleanup(ex.Close)
	pools := []*Pool{NewPool(1), NewPool(4), NewParallelPool(4, ex)}
	kinds := []string{"sum", "mean", "max"}
	f.Fuzz(func(t *testing.T, shapeB, axesB []byte, keep bool, kindB uint8, tileB []byte, seed int64) {
		shape := make([]int, min(len(shapeB), 5))
		for i := range shape {
			shape[i] = int(shapeB[i] % 10)
		}
		rng := rand.New(rand.NewSource(seed))
		in := New(shape...)
		for i := range in.data {
			in.data[i] = float32(rng.Intn(7)-3) * 0.5
			if in.data[i] == 0 && rng.Intn(2) == 0 {
				in.data[i] = float32(math.Copysign(0, -1))
			}
		}
		kind := kinds[int(kindB)%len(kinds)]
		axes := make([]int, min(len(axesB), 6))
		for i := range axes {
			axes[i] = int(int8(axesB[i]))
		}
		checkFuzzReduce(t, pools, in, axes, keep, kind)
		checkFuzzSumTo(t, pools, in, tileB)
	})
}

// runPools runs one kernel call on every pool into a NaN-filled
// destination of the given shape and checks that all agree — on the
// error, and on the result bits. It returns the width-1 result.
func runPools(t *testing.T, pools []*Pool, shape []int, call func(p *Pool, out *Tensor) error) (*Tensor, error) {
	t.Helper()
	var first *Tensor
	var firstErr error
	for i, p := range pools {
		out := Full(float32(math.NaN()), shape...)
		err := call(p, out)
		if i == 0 {
			first, firstErr = out, err
			continue
		}
		if (err == nil) != (firstErr == nil) {
			t.Fatalf("pool %d error %v, width 1 %v", i, err, firstErr)
		}
		if j, ok := sameBits(out.Data(), first.Data()); err == nil && !ok {
			t.Fatalf("pool %d output %d is %v, width 1 gives %v", i, j, out.Data()[j], first.Data()[j])
		}
	}
	return first, firstErr
}

// blockCount is the number of alternating reduced/kept runs of axes
// longer than 1 — the blocks a layout coalesces them into.
func blockCount(dims []int, kept []bool) int {
	n, last := 0, -1
	for i, d := range dims {
		k := 0
		if kept[i] {
			k = 1
		}
		if d != 1 && k != last {
			n, last = n+1, k
		}
	}
	return n
}

// checkFuzzReduce checks one ReduceInto against the naive folds.
func checkFuzzReduce(t *testing.T, pools []*Pool, in *Tensor, axes []int, keep bool, kind string) {
	rank := in.Rank()
	red := make([]bool, rank)
	valid := true
	for _, a := range axes {
		if a < 0 {
			a += rank
		}
		if a < 0 || a >= rank {
			valid = false
			break
		}
		red[a] = true
	}
	if len(axes) == 0 {
		for i := range red {
			red[i] = true
		}
	}
	var outShape, keptDims []int
	kept := make([]bool, rank)
	for i, d := range in.shape {
		kept[i] = !red[i]
		if kept[i] {
			outShape, keptDims = append(outShape, d), append(keptDims, d)
		} else if keep {
			outShape = append(outShape, 1)
		}
	}
	got, err := runPools(t, pools, outShape, func(p *Pool, out *Tensor) error {
		return ReduceInto(p, out, in, axes, keep, kind)
	})
	if !valid || blockCount(in.shape, kept) > maxBlocks {
		if err == nil {
			t.Fatalf("reduction of %v over %v accepted", in.shape, axes)
		}
		return
	}
	if err != nil {
		t.Fatalf("reduction of %v over %v: %v", in.shape, axes, err)
	}
	// Naive fold: each input's output index from its kept coordinates.
	n := SizeOf(keptDims)
	maxes, sums, abs := Full(negInf, n).data, make([]float64, n), make([]float64, n)
	idx := make([]int, rank)
	for _, v := range in.data {
		o := 0
		for i, x := range idx {
			if kept[i] {
				o = o*in.shape[i] + x
			}
		}
		if v > maxes[o] {
			maxes[o] = v
		}
		sums[o] += float64(v)
		abs[o] += math.Abs(float64(v))
		for i := rank - 1; i >= 0; i-- {
			if idx[i]++; idx[i] < in.shape[i] {
				break
			}
			idx[i] = 0
		}
	}
	count := float64(in.Size()) / float64(max(1, n))
	for o := 0; o < n; o++ {
		g := got.data[o]
		switch {
		case kind == "max":
			if i, ok := sameBits([]float32{g}, maxes[o:o+1]); !ok {
				t.Fatalf("max of %v over %v, output %d: %v, the fold gives %v", in.shape, axes, o+i, g, maxes[o])
			}
		default:
			want, tol := sums[o], 1e-5*abs[o]+1e-6
			if kind == "mean" && count > 0 {
				want, tol = want/count, tol/count
			}
			if math.Abs(float64(g)-want) > tol {
				t.Fatalf("%s of %v over %v, output %d: %v, float64 gives %v", kind, in.shape, axes, o, g, want)
			}
		}
	}
}

// checkFuzzSumTo checks one SumToInto against a float64 reference. Per
// axis, tile picks the target: kept, broadcast (1), a divisor of the
// axis when it has one, a non-divisor, or a leading axis dropped.
func checkFuzzSumTo(t *testing.T, pools []*Pool, in *Tensor, tile []byte) {
	rank := in.Rank()
	target := make([]int, rank)
	drop := 0
	for i, d := range in.shape {
		b := byte(0)
		if i < len(tile) {
			b = tile[i]
		}
		switch b % 5 {
		case 0:
			target[i] = d
		case 1:
			target[i] = 1
		case 2:
			target[i] = d
			for q := 2; q < d; q++ {
				if d%q == 0 {
					target[i] = q
					break
				}
			}
		case 3:
			target[i] = d + 1
		case 4:
			if i == drop {
				drop++
			}
			target[i] = 1
		}
	}
	target = target[drop:]
	valid := true
	var dims []int
	var kept []bool
	for i, d := range in.shape {
		tt := 1
		if i >= drop {
			tt = target[i-drop]
		}
		valid = valid && (tt == d || tt > 0 && d%tt == 0)
		m := 1
		if tt > 0 {
			m = d / tt
		}
		dims, kept = append(dims, m, tt), append(kept, false, true)
	}
	got, err := runPools(t, pools, target, func(p *Pool, out *Tensor) error {
		return SumToInto(p, out, in)
	})
	if !valid || blockCount(dims, kept) > maxBlocks {
		if err == nil {
			t.Fatalf("SumToInto %v → %v accepted", in.shape, target)
		}
		return
	}
	if err != nil {
		t.Fatalf("SumToInto %v → %v: %v", in.shape, target, err)
	}
	n := SizeOf(target)
	sums, abs := make([]float64, n), make([]float64, n)
	idx := make([]int, rank)
	for _, v := range in.data {
		o := 0
		for i := drop; i < rank; i++ {
			o = o*target[i-drop] + idx[i]%target[i-drop]
		}
		sums[o] += float64(v)
		abs[o] += math.Abs(float64(v))
		for i := rank - 1; i >= 0; i-- {
			if idx[i]++; idx[i] < in.shape[i] {
				break
			}
			idx[i] = 0
		}
	}
	for o := 0; o < n; o++ {
		if math.Abs(float64(got.data[o])-sums[o]) > 1e-5*abs[o]+1e-6 {
			t.Fatalf("SumToInto %v → %v, output %d: %v, float64 gives %v", in.shape, target, o, got.data[o], sums[o])
		}
	}
}
