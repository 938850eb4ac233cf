package tensor_test

import (
	"testing"
	"time"

	"repro/internal/profiling"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// recordedEvent runs n iterations of body at grain 1 on a serial pool
// of width w and returns the op as a trace event: its wall time and
// the chunk durations the pool recorded.
func recordedEvent(t *testing.T, w, n int, body func(lo, hi int)) (runtime.Event, time.Duration) {
	t.Helper()
	p := tensor.NewPool(w)
	t0 := time.Now()
	p.For(n, 1, body)
	wall := time.Since(t0)
	r := p.TakeRegions()
	if len(r) != 1 || len(r[0]) < w {
		t.Fatalf("width %d over %d iterations: recorded %d regions (%v), want 1 of at least %d chunks", w, n, len(r), r, w)
	}
	var sum time.Duration
	for _, d := range r[0] {
		sum += d
	}
	return runtime.Event{Op: "MatMul", Dur: wall, Regions: r}, sum
}

// TestPoolSimulatedSpeedup: a region recorded by a serial pool, priced
// at the pool's width, lies between its serial time and the time with
// the chunk sum spread perfectly over the lanes. The modeled speedup is
// printed.
func TestPoolSimulatedSpeedup(t *testing.T) {
	work := func(lo, hi int) {
		s := 0.0
		for i := lo; i < hi; i++ {
			for j := 0; j < 2000; j++ {
				s += float64(i*j) * 1e-9
			}
		}
		_ = s
	}
	const w = 4
	ev, sum := recordedEvent(t, w, 400, work)
	events := []runtime.Event{ev}
	t1, tw := profiling.AtWidth(events, 1)[0].Dur, profiling.AtWidth(events, w)[0].Dur
	if t1 != ev.Dur {
		t.Fatalf("one lane should keep the serial time %v, got %v", ev.Dur, t1)
	}
	if rest := ev.Dur - sum; tw > t1 || (tw-rest)*w < sum {
		t.Fatalf("%d lanes: modeled %v outside [%v + %v/%d, %v]", w, tw, rest, sum, w, t1)
	}
	t.Logf("recorded %d chunks: serial %v, %d lanes modeled %v, speedup %.2f",
		len(ev.Regions[0]), t1, w, tw, float64(t1)/float64(tw))
}

// TestPoolOpTimeNeverNegative: an op whose recorded chunks outweigh its
// measured time is priced at zero, never below.
func TestPoolOpTimeNeverNegative(t *testing.T) {
	ev, _ := recordedEvent(t, 4, 1000, func(lo, hi int) {})
	ev.Dur = 0
	if d := profiling.AtWidth([]runtime.Event{ev}, 4)[0].Dur; d < 0 {
		t.Fatalf("modeled op time must clamp at zero, got %v", d)
	}
}
