package telemetry

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// PhaseSample is one training step's wall-time decomposition. Sample
// covers input synthesis (TrainSample), Grad the fused forward+backward
// graph execution — the runtime evaluates loss and gradients in a
// single Run, so forward and backward are not separable phases here —
// Reduce the cross-replica gradient all-reduce, and Apply the
// parameter update. Wall is the whole step including coordination.
// Sample and Grad are the slowest replica's walls (the parallel
// phases' critical path); GradSum is the grad wall summed over
// replicas — the serial work, which is what an Amdahl bound divides by
// the critical path (profiling.TrainScaling).
type PhaseSample struct {
	Step    int
	Sample  time.Duration
	Grad    time.Duration
	GradSum time.Duration
	Reduce  time.Duration
	Apply   time.Duration
	Wall    time.Duration
}

// add accumulates o's durations into s (Step is not a duration and is
// left alone).
func (s *PhaseSample) add(o PhaseSample) {
	s.Sample += o.Sample
	s.Grad += o.Grad
	s.GradSum += o.GradSum
	s.Reduce += o.Reduce
	s.Apply += o.Apply
	s.Wall += o.Wall
}

// PhaseRing keeps the most recent training steps' phase breakdowns in
// a fixed-size ring. Recording happens once per training step (not per
// op), so a mutex is cheap; readers get a copy in step order. Beside
// the retained samples the ring keeps a running sum since the last
// ResetSum, so a run's phase totals survive the ring wrapping.
type PhaseRing struct {
	mu       sync.Mutex
	buf      []PhaseSample
	head     int
	total    int
	sum      PhaseSample
	sumSteps int
}

// NewPhaseRing returns a ring retaining the last n steps (minimum 1).
func NewPhaseRing(n int) *PhaseRing {
	if n < 1 {
		n = 1
	}
	return &PhaseRing{buf: make([]PhaseSample, 0, n)}
}

// Record appends one step's breakdown, evicting the oldest when full.
func (r *PhaseRing) Record(s PhaseSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.head] = s
		r.head = (r.head + 1) % cap(r.buf)
	}
	r.total++
	r.sum.add(s)
	r.sumSteps++
}

// Sum returns the phase durations summed over every step recorded
// since the last ResetSum (or ever), and how many steps that was.
func (r *PhaseRing) Sum() (sum PhaseSample, steps int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sum, r.sumSteps
}

// ResetSum zeroes the running sum — e.g. after warmup steps, so totals
// exclude one-time plan compilation. Retained samples and Total are
// untouched.
func (r *PhaseRing) ResetSum() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sum, r.sumSteps = PhaseSample{}, 0
}

// Total reports how many steps have ever been recorded.
func (r *PhaseRing) Total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Samples returns the retained steps, oldest first.
func (r *PhaseRing) Samples() []PhaseSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PhaseSample, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// WritePhaseTable renders retained steps as an aligned text table plus
// per-phase means — the `fathom train -trace` output.
func WritePhaseTable(w io.Writer, samples []PhaseSample) {
	if len(samples) == 0 {
		fmt.Fprintln(w, "  (no phase samples recorded)")
		return
	}
	fmt.Fprintf(w, "  %6s %12s %12s %12s %12s %12s\n",
		"step", "sample", "grad", "reduce", "apply", "wall")
	var sum PhaseSample
	for _, s := range samples {
		fmt.Fprintf(w, "  %6d %12s %12s %12s %12s %12s\n",
			s.Step, fmtDur(s.Sample), fmtDur(s.Grad), fmtDur(s.Reduce), fmtDur(s.Apply), fmtDur(s.Wall))
		sum.add(s)
	}
	n := time.Duration(len(samples))
	fmt.Fprintf(w, "  %6s %12s %12s %12s %12s %12s\n",
		"mean", fmtDur(sum.Sample/n), fmtDur(sum.Grad/n), fmtDur(sum.Reduce/n), fmtDur(sum.Apply/n), fmtDur(sum.Wall/n))
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}
