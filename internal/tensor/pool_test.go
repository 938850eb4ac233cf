package tensor

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sched"
)

func TestPoolSerialWhenOneWorker(t *testing.T) {
	p := NewPool(1)
	var calls int
	p.For(100, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Fatalf("one worker should get a single chunk, got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("expected 1 call, got %d", calls)
	}
	if r := p.TakeRegions(); r != nil {
		t.Fatalf("width 1 must not record, got %v", r)
	}
}

func TestPoolCoversRangeExactlyOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4, 8} {
		p := NewPool(w)
		seen := make([]int, 1000)
		p.For(1000, 10, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d index %d covered %d times", w, i, c)
			}
		}
	}
}

func TestPoolRefusesToSplitSmallLoops(t *testing.T) {
	p := NewPool(8)
	calls := 0
	p.For(10, 100, func(lo, hi int) { calls++ })
	if calls != 1 {
		t.Fatalf("small loop should not split, got %d chunks", calls)
	}
	if r := p.TakeRegions(); r != nil {
		t.Fatalf("a small loop must not be recorded as a region, got %v", r)
	}
}

func TestPoolChunkCountRespectsGrain(t *testing.T) {
	p := NewPool(8)
	chunks := 0
	// 40 items, grain 10 → at most 4 chunks even with 8 workers.
	p.For(40, 10, func(lo, hi int) {
		chunks++
		if hi-lo < 10 {
			t.Fatalf("chunk smaller than grain: [%d,%d)", lo, hi)
		}
	})
	if chunks != 4 {
		t.Fatalf("expected 4 chunks, got %d", chunks)
	}
}

// TestPoolRecordsChunks: a serial pool wider than 1 records one entry
// per split region and one duration per chunk, and TakeRegions hands
// the record over and clears it. Parallel pools record nothing.
func TestPoolRecordsChunks(t *testing.T) {
	p := NewPool(4)
	p.For(400, 1, func(lo, hi int) {})
	p.For(10, 100, func(lo, hi int) {}) // does not split
	p.ForLane(64, 8, func(lane, lo, hi int) {})
	r := p.TakeRegions()
	if len(r) != 2 || len(r[0]) != regionChunks(400, 1) || len(r[1]) != regionChunks(64, 8) {
		t.Fatalf("record has %d regions, want 2 of %d and %d chunks: %v",
			len(r), regionChunks(400, 1), regionChunks(64, 8), r)
	}
	for _, reg := range r {
		for _, d := range reg {
			if d < 0 {
				t.Fatalf("negative chunk duration %v", d)
			}
		}
	}
	if r := p.TakeRegions(); r != nil {
		t.Fatalf("TakeRegions must clear the record, got %v", r)
	}
	par := NewParallelPool(4, newExecN(3))
	par.For(400, 1, func(lo, hi int) {})
	if r := par.TakeRegions(); r != nil {
		t.Fatalf("a parallel pool must not record, got %v", r)
	}
}

// TestPoolWidthClamp: width is a constructor argument, floored at 1.
func TestPoolWidthClamp(t *testing.T) {
	for _, n := range []int{0, -3} {
		if w := NewPool(n).Workers(); w != 1 {
			t.Fatalf("NewPool(%d).Workers() = %d, want 1", n, w)
		}
	}
	if w := NewPool(6).Workers(); w != 6 {
		t.Fatalf("NewPool(6).Workers() = %d", w)
	}
}

// TestPoolChunkAccounting sweeps (n, grain, workers) combinations and
// asserts the chunking invariants around the n/grain clamp: every
// index covered exactly once, no empty chunk ever invokes fn, and when
// the loop splits every chunk holds at least grain iterations. Small n
// close to grain*2 exercises the clamped-boundary edge case.
func TestPoolChunkAccounting(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4, 7, 8, 16} {
		for _, grain := range []int{1, 2, 3, 5, 10, 100} {
			for n := 0; n <= 64; n++ {
				p := NewPool(w)
				seen := make([]int, n)
				chunks := 0
				p.For(n, grain, func(lo, hi int) {
					chunks++
					if hi <= lo {
						t.Fatalf("w=%d grain=%d n=%d: empty chunk [%d,%d)", w, grain, n, lo, hi)
					}
					for i := lo; i < hi; i++ {
						seen[i]++
					}
				})
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("w=%d grain=%d n=%d: index %d covered %d times", w, grain, n, i, c)
					}
				}
				if len(p.TakeRegions()) > 0 && chunks < 2 {
					t.Fatalf("w=%d grain=%d n=%d: split region with %d chunks", w, grain, n, chunks)
				}
			}
		}
	}
}

func TestPoolScratchBufPersistsAndGrows(t *testing.T) {
	p := NewPool(2)
	b1 := p.scratchBuf(scratchPackA, 100)
	if len(b1) != 100 {
		t.Fatalf("scratch length %d, want 100", len(b1))
	}
	b1[0] = 42
	b2 := p.scratchBuf(scratchPackA, 50)
	if len(b2) != 50 || b2[0] != 42 {
		t.Fatal("scratch must be reused, not reallocated, when shrinking")
	}
	b3 := p.scratchBuf(scratchPackA, 200)
	if len(b3) != 200 {
		t.Fatalf("scratch length %d, want 200", len(b3))
	}
	// Distinct slots must not share storage.
	a := p.scratchBuf(scratchPackA, 8)
	b := p.scratchBuf(scratchPackB, 8)
	a[0], b[0] = 1, 2
	if a[0] != 1 {
		t.Fatal("scratch slots must be independent")
	}
}

func TestPoolZeroIterations(t *testing.T) {
	p := NewPool(4)
	called := false
	p.For(0, 1, func(lo, hi int) { called = true })
	if called {
		t.Fatal("For(0) must not invoke fn")
	}
}

// ---- real parallel strategy (shared sched pool) ----

func newTestExec(n int) *sched.Pool { return sched.New(n) }

func TestParallelPoolCoversRangeExactlyOnce(t *testing.T) {
	ex := newTestExec(4)
	defer ex.Close()
	for _, w := range []int{1, 2, 4, 8} {
		p := NewParallelPool(w, ex)
		var seen [1000]int32
		p.For(1000, 10, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i := range seen {
			if seen[i] != 1 {
				t.Fatalf("workers=%d index %d covered %d times", w, i, seen[i])
			}
		}
	}
}

// TestParallelPoolBitIdenticalToSerial: an index-pure region produces
// the same bits at every width and strategy.
func TestParallelPoolBitIdenticalToSerial(t *testing.T) {
	ex := newTestExec(4)
	defer ex.Close()
	rng := rand.New(rand.NewSource(7))
	in := make([]float32, 5000)
	for i := range in {
		in[i] = rng.Float32()*2 - 1
	}
	ref := make([]float32, len(in))
	NewPool(1).For(len(in), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ref[i] = in[i]*in[i] + 0.5
		}
	})
	for _, w := range []int{2, 4, 8} {
		got := make([]float32, len(in))
		NewParallelPool(w, ex).For(len(in), 64, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				got[i] = in[i]*in[i] + 0.5
			}
		})
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("width %d differs at %d", w, i)
			}
		}
	}
}

// TestForLaneScratchIsolation: concurrent lanes own disjoint scratch.
// Each chunk stamps its lane scratch and verifies the stamp survives
// the chunk's computation — a shared buffer would be clobbered by
// whichever lane runs concurrently.
func TestForLaneScratchIsolation(t *testing.T) {
	ex := newTestExec(4)
	defer ex.Close()
	p := NewParallelPool(4, ex)
	var bad atomic.Int32
	p.ForLane(64, 1, func(lane, lo, hi int) {
		s := p.laneScratch(lane, scratchPackA, 256)
		stamp := float32(lo + 1)
		for i := range s {
			s[i] = stamp
		}
		// Simulate kernel work long enough for lanes to overlap.
		acc := float32(0)
		for i := 0; i < 20000; i++ {
			acc += float32(i)
		}
		_ = acc
		for i := range s {
			if s[i] != stamp {
				bad.Add(1)
				return
			}
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d chunks saw their lane scratch clobbered", bad.Load())
	}
}

// TestParallelPoolPanicRethrown: a panic on a helper lane surfaces on
// the calling goroutine, after every lane joined.
func TestParallelPoolPanicRethrown(t *testing.T) {
	ex := newTestExec(4)
	defer ex.Close()
	p := NewParallelPool(4, ex)
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	p.For(1000, 1, func(lo, hi int) {
		if lo > 0 {
			panic("boom")
		}
	})
	t.Fatal("For should have panicked")
}

// TestManyPoolsOneExecutor hammers a single shared executor from many
// goroutine-confined pools — the race detector checks the handoffs,
// and results must stay bit-identical to serial everywhere.
func TestManyPoolsOneExecutor(t *testing.T) {
	ex := newTestExec(3)
	defer ex.Close()
	in := make([]float32, 16*1024)
	for i := range in {
		in[i] = float32(i%17) * 0.25
	}
	x := FromSlice(in, 16, 1024) // four chunks of partials
	sum := func(p *Pool) []float32 {
		out := New(1024)
		if err := ReduceInto(p, out, x, []int{0}, false, "sum"); err != nil {
			t.Error(err)
		}
		return out.Data()
	}
	want := sum(NewPool(1))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := NewParallelPool(1+g%4, ex)
			for rep := 0; rep < 50; rep++ {
				if i, ok := firstDiff(sum(p), want); !ok {
					t.Errorf("goroutine %d rep %d: output %d differs from serial", g, rep, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkPoolFor compares the strategies on a memory-light compute
// loop; run with -cpu 1,4 in CI to exercise both host widths.
func BenchmarkPoolFor(b *testing.B) {
	work := func(lo, hi int) {
		s := float32(0)
		for i := lo; i < hi; i++ {
			s += float32(i) * 1e-9
		}
		_ = s
	}
	b.Run("serial", func(b *testing.B) {
		p := NewPool(1)
		for i := 0; i < b.N; i++ {
			p.For(1<<16, 1024, work)
		}
	})
	b.Run("parallel4", func(b *testing.B) {
		ex := newTestExec(4)
		defer ex.Close()
		p := NewParallelPool(4, ex)
		for i := 0; i < b.N; i++ {
			p.For(1<<16, 1024, work)
		}
	})
}
