package tensor

import (
	"math/rand"
	"testing"
)

// execN is a minimal Executor lending up to n concurrent helper
// goroutines, for exercising the real-parallel strategy in-package.
type execN struct{ sem chan struct{} }

func newExecN(n int) *execN { return &execN{sem: make(chan struct{}, n)} }

func (e *execN) TryRun(task func()) bool {
	select {
	case e.sem <- struct{}{}:
		go func() {
			defer func() { <-e.sem }()
			task()
		}()
		return true
	default:
		return false
	}
}

// TestForSumVecBitIdenticalAcrossWidths is the vector counterpart of
// the full-sum width-invariance contract: a reduction to a short vector
// of outputs folds per-chunk vector partials in ascending chunk order,
// giving the same bits under the serial, recorded and real-parallel
// strategies at every width.
func TestForSumVecBitIdenticalAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const rows, w = 7142, 7
	in := RandUniform(rng, -1, 1, rows, w)
	sum := func(p *Pool) []float32 {
		out, err := Reduce(p, in, []int{0}, false, "sum")
		if err != nil {
			t.Fatal(err)
		}
		return out.Data()
	}
	want := sum(NewPool(1))

	// Reference: explicit ascending-chunk combination. The layout is one
	// reduced block of rows over one kept block of w, so the chunk rule
	// splits the rows into chunks of at least ⌈reduceGrain/w⌉.
	id := in.Data()
	chunks := regionChunks(rows, (reduceGrain+w-1)/w)
	if chunks < 2 {
		t.Fatalf("%d rows of %d make %d chunk(s); the test needs several", rows, w, chunks)
	}
	ref := make([]float32, w)
	for c := 0; c < chunks; c++ {
		lo, hi := chunkBounds(rows, chunks, c)
		part := make([]float32, w)
		for pos := lo * w; pos < hi*w; pos++ {
			part[pos%w] += id[pos]
		}
		for i := range ref {
			ref[i] += part[i]
		}
	}
	if i, ok := firstDiff(ref, want); !ok {
		t.Fatalf("width-1 sum differs from the chunk-ordered reference at %d", i)
	}

	for _, workers := range []int{2, 4, 8} {
		if i, ok := firstDiff(want, sum(NewPool(workers))); !ok {
			t.Fatalf("recorded width %d differs from width 1 at %d", workers, i)
		}
		for rep := 0; rep < 5; rep++ {
			if i, ok := firstDiff(want, sum(NewParallelPool(workers, newExecN(workers-1)))); !ok {
				t.Fatalf("parallel width %d differs from width 1 at %d", workers, i)
			}
		}
	}
}

// TestAxisReduceSmallOuterParallel: sum/mean reductions whose outputs
// are small (batch-norm channel statistics) split their reduced
// outermost block into chunks, and the result bits are identical at
// every pool width — and equal to an explicit ascending-chunk
// reference.
func TestAxisReduceSmallOuterParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := RandUniform(rng, -1, 1, 6, 28, 28, 5) // NHWC, C=5 outer dim
	for _, kind := range []string{"sum", "mean"} {
		want, err := Reduce(NewPool(1), in, []int{0, 1, 2}, true, kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			got, err := Reduce(NewPool(workers), in, []int{0, 1, 2}, true, kind)
			if err != nil {
				t.Fatal(err)
			}
			if i, ok := firstDiff(want.Data(), got.Data()); !ok {
				t.Fatalf("%s recorded width %d differs from width 1 at %d", kind, workers, i)
			}
			par, err := Reduce(NewParallelPool(workers, newExecN(workers-1)), in, []int{0, 1, 2}, true, kind)
			if err != nil {
				t.Fatal(err)
			}
			if i, ok := firstDiff(want.Data(), par.Data()); !ok {
				t.Fatalf("%s parallel width %d differs from width 1 at %d", kind, workers, i)
			}
		}
	}

	// The width-1 result itself must follow the ascending-chunk combine
	// order. The layout is one reduced block of 6·28·28 outer positions
	// over one kept block of C = 5, so the chunk rule splits the outer
	// positions into chunks of at least ⌈4096/5⌉, and a position's
	// output index is simply pos % C.
	id := in.Data()
	w, outer := 5, 6*28*28
	chunks := regionChunks(outer, (4096+w-1)/w)
	ref := make([]float32, w)
	for c := 0; c < chunks; c++ {
		lo, hi := chunkBounds(outer, chunks, c)
		part := make([]float32, w)
		for pos := lo * w; pos < hi*w; pos++ {
			part[pos%w] += id[pos]
		}
		for i := range ref {
			ref[i] += part[i]
		}
	}
	got, err := Reduce(NewPool(1), in, []int{0, 1, 2}, false, "sum")
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := firstDiff(ref, got.Data()); !ok {
		t.Fatalf("axis sum does not follow ascending-chunk combine order at %d", i)
	}
}

// TestAxisReduceMaxAndLargeOuterExact: max reductions and reductions
// with many outputs match an exact per-fiber left-to-right fold. Both
// inputs are under 2 × reduceGrain elements, so the chunk rule keeps
// the outermost block whole and each fiber is one chain.
func TestAxisReduceMaxAndLargeOuterExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := RandUniform(rng, -1, 1, 64, 40)
	mx, err := Reduce(NewPool(4), in, []int{0}, false, "max")
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 40; j++ {
		want := in.At(0, j)
		for i := 1; i < 64; i++ {
			if v := in.At(i, j); v > want {
				want = v
			}
		}
		if mx.Data()[j] != want {
			t.Fatalf("max over axis 0 wrong at %d", j)
		}
	}
	// Many outputs, too few inputs to split: one chain per fiber.
	big := RandUniform(rng, -1, 1, 3, 2048)
	sum, err := Reduce(NewPool(4), big, []int{0}, false, "sum")
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2048; j++ {
		want := big.At(0, j) + big.At(1, j) + big.At(2, j)
		if sum.Data()[j] != want {
			t.Fatalf("large-outer sum wrong at %d", j)
		}
	}
}

func firstDiff(a, b []float32) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if a[i] != b[i] {
			return i, false
		}
	}
	return 0, true
}
