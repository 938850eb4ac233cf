package profiling

import (
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/runtime"
)

func evts() []runtime.Event {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return []runtime.Event{
		{Op: "MatMul", Class: graph.ClassMatrix, Dur: ms(60), Step: 0},
		{Op: "Add", Class: graph.ClassElementwise, Dur: ms(20), Step: 0},
		{Op: "Sum", Class: graph.ClassReduction, Dur: ms(20), Step: 0},
		{Op: "MatMul", Class: graph.ClassMatrix, Dur: ms(58), Step: 1},
		{Op: "Add", Class: graph.ClassElementwise, Dur: ms(22), Step: 1},
		{Op: "Sum", Class: graph.ClassReduction, Dur: ms(20), Step: 1},
	}
}

func TestCollectAggregates(t *testing.T) {
	p := Collect("toy", "training", 2, evts())
	if p.Total != 200*time.Millisecond {
		t.Fatalf("total = %v", p.Total)
	}
	if p.ByType["MatMul"] != 118*time.Millisecond {
		t.Fatalf("MatMul time = %v", p.ByType["MatMul"])
	}
	if p.ByClass[graph.ClassMatrix] != 118*time.Millisecond {
		t.Fatalf("class A time = %v", p.ByClass[graph.ClassMatrix])
	}
	if p.ClassOfType["Sum"] != graph.ClassReduction {
		t.Fatal("class map wrong")
	}
}

func TestSharesSortedDescending(t *testing.T) {
	p := Collect("toy", "training", 2, evts())
	sh := p.Shares()
	if sh[0].Op != "MatMul" {
		t.Fatalf("heaviest op should be MatMul, got %v", sh[0])
	}
	if sh[0].Fraction < 0.58 || sh[0].Fraction > 0.60 {
		t.Fatalf("MatMul share = %v", sh[0].Fraction)
	}
	for i := 1; i < len(sh); i++ {
		if sh[i].Time > sh[i-1].Time {
			t.Fatal("shares must be sorted descending")
		}
	}
}

func TestClassFractionsSumToOne(t *testing.T) {
	p := Collect("toy", "training", 2, evts())
	fr := p.ClassFractions()
	var sum float64
	for _, f := range fr {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("class fractions sum to %v", sum)
	}
}

func TestCumulativeCurveMonotone(t *testing.T) {
	p := Collect("toy", "training", 2, evts())
	cum := p.Cumulative()
	if len(cum) != 3 {
		t.Fatalf("3 op types expected, got %d", len(cum))
	}
	prev := 0.0
	for _, pt := range cum {
		if pt.Cumulative < prev {
			t.Fatal("cumulative must be monotone")
		}
		prev = pt.Cumulative
	}
	if prev < 0.999 || prev > 1.001 {
		t.Fatalf("cumulative should end at 1, got %v", prev)
	}
}

func TestHeavyTypes(t *testing.T) {
	p := Collect("toy", "training", 2, evts())
	if h := p.HeavyTypes(0.5); h != 1 {
		t.Fatalf("50%% coverage needs %d types, want 1", h)
	}
	if h := p.HeavyTypes(0.95); h != 3 {
		t.Fatalf("95%% coverage needs %d types, want 3", h)
	}
}

func TestPerStepTimesAndStationarity(t *testing.T) {
	series := PerStepTimes(evts(), "MatMul")
	if len(series) != 2 || series[0] != 60*time.Millisecond {
		t.Fatalf("per-step times = %v", series)
	}
	st := Stationary(series)
	if st.Samples != 2 || st.Mean != 59*time.Millisecond {
		t.Fatalf("stationarity = %+v", st)
	}
	if st.CoV > 0.05 {
		t.Fatalf("CoV should be tiny for near-constant series: %v", st.CoV)
	}
}

func TestStationaryEmpty(t *testing.T) {
	st := Stationary(nil)
	if st.Samples != 0 || st.Mean != 0 {
		t.Fatal("empty series should produce zero stats")
	}
}

func TestStationaryDrift(t *testing.T) {
	var s []time.Duration
	for i := 0; i < 10; i++ {
		s = append(s, 10*time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		s = append(s, 20*time.Millisecond)
	}
	st := Stationary(s)
	if st.Drift < 0.9 || st.Drift > 1.1 {
		t.Fatalf("drift = %v, want ≈1 for doubled second half", st.Drift)
	}
}

func TestStepTotals(t *testing.T) {
	tot := StepTotals(evts())
	if len(tot) != 2 || tot[0] != 100*time.Millisecond || tot[1] != 100*time.Millisecond {
		t.Fatalf("step totals = %v", tot)
	}
}

func TestHistogram(t *testing.T) {
	series := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	edges, counts := Histogram(series, 2)
	if len(edges) != 3 || len(counts) != 2 {
		t.Fatalf("histogram shape: %v %v", edges, counts)
	}
	if counts[0]+counts[1] != 10 {
		t.Fatalf("histogram must cover all samples: %v", counts)
	}
}

func TestVectorize(t *testing.T) {
	p1 := Collect("m1", "training", 1, []runtime.Event{
		{Op: "MatMul", Class: graph.ClassMatrix, Dur: time.Second},
	})
	p2 := Collect("m2", "training", 1, []runtime.Event{
		{Op: "Conv2D", Class: graph.ClassConv, Dur: time.Second},
	})
	types, vecs := Vectorize([]*Profile{p1, p2})
	if len(types) != 2 {
		t.Fatalf("union of types = %v", types)
	}
	// Orthogonal profiles: each vector has one 1 and one 0.
	for _, v := range vecs {
		var sum float64
		for _, x := range v {
			sum += x
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("vector should sum to 1: %v", v)
		}
	}
	if vecs[0][0]*vecs[1][0]+vecs[0][1]*vecs[1][1] != 0 {
		t.Fatal("disjoint profiles should be orthogonal")
	}
}

func TestProfileString(t *testing.T) {
	p := Collect("toy", "training", 2, evts())
	s := p.String()
	if len(s) == 0 || s[0] != 't' {
		t.Fatalf("profile string: %q", s)
	}
}

// TestInterOpSyntheticTrace pins the inter-op aggregation on a
// hand-built two-step trace: step 0 runs A and B concurrently on two
// lanes then C after both (serial 25, makespan 15, critical path 15);
// step 1 is one 5-unit op.
func TestInterOpSyntheticTrace(t *testing.T) {
	u := time.Microsecond
	events := []runtime.Event{
		{Op: "A", Step: 0, Worker: 0, Start: 0, Dur: 10 * u, CP: 10 * u},
		{Op: "B", Step: 0, Worker: 1, Start: 0, Dur: 10 * u, CP: 10 * u},
		{Op: "C", Step: 0, Worker: 0, Start: 10 * u, Dur: 5 * u, CP: 15 * u},
		{Op: "D", Step: 1, Worker: 0, Start: 15 * u, Dur: 5 * u, CP: 5 * u},
	}
	st := InterOp(events)
	if st.Steps != 2 || st.Ops != 4 {
		t.Fatalf("steps/ops = %d/%d, want 2/4", st.Steps, st.Ops)
	}
	if st.Serial != 30*u {
		t.Fatalf("serial = %v, want 30µs", st.Serial)
	}
	if st.Makespan != 20*u {
		t.Fatalf("makespan = %v, want 20µs", st.Makespan)
	}
	if st.CritPath != 20*u {
		t.Fatalf("critical path = %v, want 20µs", st.CritPath)
	}
	if st.Achieved != 1.5 || st.Achievable != 1.5 {
		t.Fatalf("achieved/achievable = %v/%v, want 1.5/1.5", st.Achieved, st.Achievable)
	}
	if st.Workers != 2 {
		t.Fatalf("workers = %d, want 2", st.Workers)
	}
	if len(st.Occupancy) != 2 || st.Occupancy[0] != 1.0 || st.Occupancy[1] != 0.5 {
		t.Fatalf("occupancy = %v, want [1.0 0.5]", st.Occupancy)
	}
}

// TestInterOpEmptyTrace: no events, no division by zero.
func TestInterOpEmptyTrace(t *testing.T) {
	st := InterOp(nil)
	if st.Steps != 0 || st.Achieved != 0 || st.Achievable != 0 {
		t.Fatalf("empty trace should be zero-valued: %+v", st)
	}
}

// TestInterOpSerialTraceIsFlat: a serial trace (contiguous events on
// worker 0) has makespan equal to serial time — achieved speedup 1.
func TestInterOpSerialTraceIsFlat(t *testing.T) {
	u := time.Microsecond
	events := []runtime.Event{
		{Op: "A", Step: 0, Worker: 0, Start: 0, Dur: 4 * u, CP: 4 * u},
		{Op: "B", Step: 0, Worker: 0, Start: 4 * u, Dur: 6 * u, CP: 10 * u},
	}
	st := InterOp(events)
	if st.Achieved != 1 {
		t.Fatalf("serial trace achieved = %v, want 1", st.Achieved)
	}
	if st.Workers != 1 {
		t.Fatalf("workers = %d, want 1", st.Workers)
	}
}

// TestAtWidth: each region's chunks are list-scheduled in order onto
// the earliest-free of w lanes and replace their serial sum in the
// event's time, clamped at zero.
func TestAtWidth(t *testing.T) {
	us := func(ds ...int) []time.Duration {
		out := make([]time.Duration, len(ds))
		for i, d := range ds {
			out[i] = time.Duration(d) * time.Microsecond
		}
		return out
	}
	cases := []struct {
		name    string
		dur     int
		regions [][]time.Duration
		w, want int
	}{
		{"no regions keeps its time", 7, nil, 4, 7},
		{"one lane takes the serial sum", 10, [][]time.Duration{us(3, 1, 1, 1)}, 1, 10},
		{"width below 1 is one lane", 10, [][]time.Duration{us(3, 1, 1, 1)}, 0, 10},
		{"two lanes", 10, [][]time.Duration{us(3, 1, 1, 1)}, 2, 7},
		{"more lanes than chunks", 10, [][]time.Duration{us(3, 1, 1, 1)}, 8, 7},
		{"in order, not sorted", 10, [][]time.Duration{us(1, 1, 1, 3)}, 2, 8},
		{"regions add up", 20, [][]time.Duration{us(2, 2, 2, 2), us(5, 1)}, 2, 15},
		{"clamped at zero", 0, [][]time.Duration{us(5, 5)}, 2, 0},
	}
	for _, c := range cases {
		in := []runtime.Event{{Op: "MatMul", Dur: time.Duration(c.dur) * time.Microsecond, Regions: c.regions}}
		got := AtWidth(in, c.w)
		if want := time.Duration(c.want) * time.Microsecond; got[0].Dur != want {
			t.Errorf("%s: Dur %v, want %v", c.name, got[0].Dur, want)
		}
		if in[0].Dur != time.Duration(c.dur)*time.Microsecond {
			t.Errorf("%s: AtWidth rewrote its input", c.name)
		}
	}

	// 400 µs of work in 32 near-equal chunks (the pool's chunking of a
	// 400-iteration region at grain 1) models a speedup near 4 on 4
	// lanes.
	chunks := make([]time.Duration, 32)
	for i := range chunks {
		chunks[i] = time.Duration((i+1)*400/32-i*400/32) * time.Microsecond
	}
	ev := []runtime.Event{{Dur: 400 * time.Microsecond, Regions: [][]time.Duration{chunks}}}
	t1, t4 := AtWidth(ev, 1)[0].Dur, AtWidth(ev, 4)[0].Dur
	if t1 != 400*time.Microsecond {
		t.Fatalf("one lane should take the serial sum, got %v", t1)
	}
	if ratio := float64(t1) / float64(t4); ratio < 3.5 || ratio > 4 {
		t.Fatalf("4 lanes over 32 near-equal chunks should model a speedup near 4, got %v (%v / %v)", ratio, t1, t4)
	}
}

// TestIntraOpError: the model's error is modeled over measured speedup,
// and zero when nothing was measured.
func TestIntraOpError(t *testing.T) {
	st := IntraOp(2, 10, 5, 10, 8)
	if st.Modeled != 2 || st.Measured != 1.25 || st.Error != 1.6 {
		t.Fatalf("modeled %v measured %v error %v, want 2, 1.25, 1.6", st.Modeled, st.Measured, st.Error)
	}
	if st := IntraOp(2, 10, 5, 10, 0); st.Measured != 0 || st.Error != 0 {
		t.Fatalf("no measurement: measured %v error %v, want 0, 0", st.Measured, st.Error)
	}
}
