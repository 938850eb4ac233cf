package telemetry

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSpanTreeInvariants builds a trace the way the serving layer does
// (request -> admission/queue, batch -> run -> op spans) and checks
// the structural contract: unique IDs, no orphan parents, and every
// op span reachable from the run span.
func TestSpanTreeInvariants(t *testing.T) {
	tc := NewTraceCollector(1, 8)
	tr := tc.New("memnet")
	now := time.Now()

	root := tr.StartSpanAt("request", 0, now)
	adm := tr.StartSpanAt("admission", root, now)
	tr.EndSpan(adm)
	q := tr.StartSpanAt("queue", root, now)
	tr.EndSpanAt(q, now.Add(time.Millisecond))
	batch := tr.AddSpan("batch", root, 0, now.Add(time.Millisecond), 2*time.Millisecond)
	run := tr.AddSpan("run", batch, 0, now.Add(time.Millisecond), 2*time.Millisecond)
	op1 := tr.AddSpan("MatMul", run, 1, now.Add(time.Millisecond), time.Millisecond)
	op2 := tr.AddSpan("Softmax", run, 2, now.Add(2*time.Millisecond), time.Millisecond)
	tr.EndSpan(root)
	tr.Finish()

	spans := tr.Spans()
	ids := map[SpanID]Span{}
	for _, s := range spans {
		if s.ID == 0 {
			t.Fatalf("span %q has zero ID", s.Name)
		}
		if _, dup := ids[s.ID]; dup {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		ids[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			if s.ID != root {
				t.Errorf("span %q is an unexpected extra root", s.Name)
			}
			continue
		}
		if _, ok := ids[s.Parent]; !ok {
			t.Errorf("span %q has orphan parent %d", s.Name, s.Parent)
		}
	}
	// Every op span must sit under the run span, transitively under
	// the request root.
	for _, op := range []SpanID{op1, op2} {
		s := ids[op]
		if s.Parent != run {
			t.Errorf("op span %q parented to %d, want run span %d", s.Name, s.Parent, run)
		}
		if s.Lane < 1 {
			t.Errorf("op span %q on lane %d, want a worker lane >= 1", s.Name, s.Lane)
		}
	}
	for id, hops := ids[op1], 0; ; hops++ {
		if hops > len(spans) {
			t.Fatal("op span not reachable from root: parent cycle")
		}
		if id.Parent == 0 {
			if id.ID != root {
				t.Fatalf("op span's root is %d, want %d", id.ID, root)
			}
			break
		}
		id = ids[id.Parent]
	}
	// Spans closed via EndSpan* carry durations; closing twice or
	// closing an unknown ID must not corrupt anything.
	tr.EndSpan(q)
	tr.EndSpan(SpanID(999))
	if d := ids[q].Dur; d != time.Millisecond {
		t.Errorf("queue span dur = %v, want 1ms", d)
	}
}

// TestCollectorSamplingAndDrain checks the 1-in-N cadence, the bounded
// ring, and Drain's one-shot semantics.
func TestCollectorSamplingAndDrain(t *testing.T) {
	tc := NewTraceCollector(10, 4)
	hits := 0
	for i := 0; i < 100; i++ {
		if tc.Sample() {
			hits++
		}
	}
	if hits != 10 {
		t.Errorf("sampled %d of 100 at every=10, want 10", hits)
	}

	for i := 0; i < 6; i++ {
		tr := tc.New("w")
		tr.StartSpan("request", 0)
		tr.Finish()
		tr.Finish() // idempotent: must not double-insert
	}
	if got := tc.Len(); got != 4 {
		t.Errorf("ring holds %d traces, cap 4", got)
	}
	if got := tc.Dropped(); got != 2 {
		t.Errorf("dropped = %d, want 2", got)
	}
	first := tc.Drain()
	if len(first) != 4 {
		t.Errorf("drain returned %d traces, want 4", len(first))
	}
	if second := tc.Drain(); len(second) != 0 {
		t.Errorf("second drain returned %d traces, want 0 (one-shot)", len(second))
	}
	// IDs are process-unique and the ring keeps the newest.
	if first[0].ID >= first[len(first)-1].ID {
		t.Errorf("ring order not oldest-first: %d .. %d", first[0].ID, first[len(first)-1].ID)
	}
}

// TestEverySamplingAlwaysHits pins every=1 (and the <1 clamp) to
// "trace everything" — the loadtest and test configuration.
func TestEverySamplingAlwaysHits(t *testing.T) {
	for _, every := range []int{0, 1} {
		tc := NewTraceCollector(every, 2)
		for i := 0; i < 5; i++ {
			if !tc.Sample() {
				t.Fatalf("every=%d draw %d not sampled", every, i)
			}
		}
	}
}

// TestTraceContext checks propagation and the decided-once contract
// that stops the engine from re-sampling behind the HTTP layer.
func TestTraceContext(t *testing.T) {
	ctx := context.Background()
	if TraceFrom(ctx) != nil || TraceDecided(ctx) {
		t.Fatal("fresh context must carry no decision")
	}
	tc := NewTraceCollector(1, 1)
	tr := tc.New("w")
	with := ContextWithTrace(ctx, tr)
	if TraceFrom(with) != tr || !TraceDecided(with) {
		t.Fatal("trace not propagated")
	}
	// A stored nil trace means "decided: not sampled".
	declined := ContextWithTrace(ctx, nil)
	if TraceFrom(declined) != nil {
		t.Fatal("declined context must yield nil trace")
	}
	if !TraceDecided(declined) {
		t.Fatal("declined context must still count as decided")
	}
}

// TestWriteChromeTraces validates the export shape: valid JSON, one
// pid per trace, metadata naming every lane, and complete events with
// non-negative relative timestamps.
func TestWriteChromeTraces(t *testing.T) {
	tc := NewTraceCollector(1, 8)
	now := time.Now()
	var traces []*Trace
	for i := 0; i < 2; i++ {
		tr := tc.New("memnet")
		root := tr.StartSpanAt("request", 0, now.Add(time.Duration(i)*time.Millisecond))
		tr.AddSpan("MatMul", root, 1, now.Add(time.Duration(i+1)*time.Millisecond), time.Millisecond)
		tr.EndSpanAt(root, now.Add(time.Duration(i+3)*time.Millisecond))
		tr.Finish()
		traces = append(traces, tr)
	}
	var b strings.Builder
	if err := WriteChromeTraces(&b, traces); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	pids := map[float64]bool{}
	var completes, metas int
	for _, ev := range doc.TraceEvents {
		pid := ev["pid"].(float64)
		pids[pid] = true
		switch ev["ph"] {
		case "X":
			completes++
			if ts := ev["ts"].(float64); ts < 0 {
				t.Errorf("negative relative timestamp %v", ts)
			}
		case "M":
			metas++
		default:
			t.Errorf("unexpected phase %v", ev["ph"])
		}
	}
	if len(pids) != 2 {
		t.Errorf("%d pids, want one per trace (2)", len(pids))
	}
	if completes != 4 {
		t.Errorf("%d complete events, want 4 (2 spans x 2 traces)", completes)
	}
	if metas < 2+4 { // process_name per trace + thread_name per used lane
		t.Errorf("%d metadata events, want >= 6", metas)
	}
}

// TestPhaseRing checks the fixed-size ring keeps the newest samples in
// order, Total counts everything ever recorded, and the running sum
// covers every recorded step — evicted ones included — until ResetSum,
// which zeroes the sum and nothing else.
func TestPhaseRing(t *testing.T) {
	r := NewPhaseRing(4)
	var want PhaseSample
	for i := 1; i <= 6; i++ {
		d := time.Duration(i) * time.Millisecond
		s := PhaseSample{Step: i, Sample: d, Grad: 2 * d, GradSum: 3 * d, Reduce: 4 * d, Apply: 5 * d, Wall: 6 * d}
		r.Record(s)
		want.add(s)
	}
	if r.Total() != 6 {
		t.Errorf("total = %d, want 6", r.Total())
	}
	got := r.Samples()
	if len(got) != 4 {
		t.Fatalf("ring holds %d samples, want 4", len(got))
	}
	for i, s := range got {
		if s.Step != i+3 {
			t.Errorf("sample %d is step %d, want %d (oldest-first, newest kept)", i, s.Step, i+3)
		}
	}
	if sum, steps := r.Sum(); sum != want || steps != 6 || sum.GradSum != 63*time.Millisecond {
		t.Errorf("sum after wrap = %+v over %d steps, want %+v over 6", sum, steps, want)
	}
	r.ResetSum()
	if sum, steps := r.Sum(); sum != (PhaseSample{}) || steps != 0 {
		t.Errorf("sum after reset = %+v over %d steps, want zero", sum, steps)
	}
	if r.Total() != 6 || len(r.Samples()) != 4 {
		t.Errorf("reset touched the ring: total %d, %d samples retained; want 6, 4", r.Total(), len(r.Samples()))
	}
	r.Record(PhaseSample{Step: 7, Wall: time.Second})
	if sum, steps := r.Sum(); sum.Wall != time.Second || steps != 1 {
		t.Errorf("sum after reset + one step = %+v over %d steps", sum, steps)
	}
	var b strings.Builder
	WritePhaseTable(&b, got)
	out := b.String()
	for _, col := range []string{"step", "sample", "grad", "reduce", "apply", "wall", "mean"} {
		if !strings.Contains(out, col) {
			t.Errorf("phase table missing %q:\n%s", col, out)
		}
	}
}
