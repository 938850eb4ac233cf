package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies a span within one trace. Zero means "no span" and
// is only valid as a root span's parent.
type SpanID uint32

// Span is one timed region of a traced request: admission, queue wait,
// batch execution, Session.Run, or a single op lifted from the
// runtime's Event stream. Lane is the Chrome-trace thread the span
// renders on — 0 for request-level spans, 1+worker for op spans, so a
// traced request shows its inter-op parallelism.
type Span struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Start  time.Time
	Dur    time.Duration
	Lane   int
}

// Trace is one sampled request's span tree. All mutation is
// mutex-guarded: a trace is touched by at most two goroutines (the
// admitting handler and the batch worker), never on the untraced hot
// path, and only 1-in-N requests carry one at all.
type Trace struct {
	ID    uint64
	Name  string
	Start time.Time

	mu       sync.Mutex
	spans    []Span
	nextSpan SpanID
	tc       *TraceCollector
	finished bool
}

// StartSpan opens a span under parent (0 for a root) starting now and
// returns its ID.
func (t *Trace) StartSpan(name string, parent SpanID) SpanID {
	return t.StartSpanAt(name, parent, time.Now())
}

// StartSpanAt opens a span with an explicit start time (queue spans
// start at enqueue, which happened before the worker saw the request).
func (t *Trace) StartSpanAt(name string, parent SpanID, at time.Time) SpanID {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextSpan++
	id := t.nextSpan
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: at})
	return id
}

// EndSpan closes an open span now. Closing an unknown or already
// closed span is a no-op.
func (t *Trace) EndSpan(id SpanID) { t.EndSpanAt(id, time.Now()) }

// EndSpanAt closes an open span at an explicit time.
func (t *Trace) EndSpanAt(id SpanID, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if t.spans[i].ID == id && t.spans[i].Dur == 0 {
			t.spans[i].Dur = at.Sub(t.spans[i].Start)
			return
		}
	}
}

// AddSpan records an already-completed span (per-op events are
// measured by the runtime and attached after the fact).
func (t *Trace) AddSpan(name string, parent SpanID, lane int, start time.Time, dur time.Duration) SpanID {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextSpan++
	id := t.nextSpan
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: start, Dur: dur, Lane: lane})
	return id
}

// Spans returns a copy of the recorded spans.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Finish hands the trace to its collector's ring. Idempotent; every
// request exit path (completion, shed, expiry, cancellation) calls it.
func (t *Trace) Finish() {
	t.mu.Lock()
	done := t.finished
	t.finished = true
	t.mu.Unlock()
	if done || t.tc == nil {
		return
	}
	t.tc.keep(t)
}

// TraceCollector decides sampling at admission and keeps the most
// recent finished traces in a bounded ring. The sampling decision is
// one atomic increment; unsampled requests never allocate.
type TraceCollector struct {
	every   uint64
	n       atomic.Uint64
	nextID  atomic.Uint64
	mu      sync.Mutex
	buf     []*Trace
	cap     int
	dropped uint64
}

// NewTraceCollector samples one request in every (minimum 1, i.e.
// every request) and retains up to buffer finished traces, dropping
// the oldest beyond that.
func NewTraceCollector(every, buffer int) *TraceCollector {
	if every < 1 {
		every = 1
	}
	if buffer < 1 {
		buffer = 1
	}
	return &TraceCollector{every: uint64(every), cap: buffer}
}

// Sample returns true for one admission in every N.
func (tc *TraceCollector) Sample() bool {
	return tc.n.Add(1)%tc.every == 1 || tc.every == 1
}

// New mints a trace with a fresh process-unique ID.
func (tc *TraceCollector) New(name string) *Trace {
	return &Trace{
		ID: tc.nextID.Add(1), Name: name, Start: time.Now(), tc: tc,
		// A served request produces ~50 spans (request/admission/queue/
		// batch/run plus one per op); starting at that capacity keeps a
		// traced request to one spans allocation instead of log2(n)
		// grow-and-discard cycles, which is most of its GC footprint.
		spans: make([]Span, 0, 64),
	}
}

func (tc *TraceCollector) keep(t *Trace) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if len(tc.buf) >= tc.cap {
		tc.buf = append(tc.buf[1:], t)
		tc.dropped++
		return
	}
	tc.buf = append(tc.buf, t)
}

// Drain returns every retained finished trace and empties the ring —
// one-shot semantics for the /debug/trace endpoint and the -trace-dir
// writer.
func (tc *TraceCollector) Drain() []*Trace {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	out := tc.buf
	tc.buf = nil
	return out
}

// Len reports the number of retained finished traces.
func (tc *TraceCollector) Len() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return len(tc.buf)
}

// Dropped reports traces evicted from the ring before being drained.
func (tc *TraceCollector) Dropped() uint64 {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.dropped
}

type traceCtxKey struct{}

// ContextWithTrace attaches a trace to a request context for
// propagation from HTTP admission through the engine.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// TraceDecided reports whether an outer layer already made this
// request's sampling decision (ContextWithTrace was called, possibly
// with a nil trace for "not sampled"). The engine only draws its own
// sample for requests that bypassed the HTTP layer, so wiring one
// collector into both layers never doubles the sampling rate.
func TraceDecided(ctx context.Context) bool {
	_, ok := ctx.Value(traceCtxKey{}).(*Trace)
	return ok
}

// Chrome trace-event JSON (chrome://tracing, Perfetto): the encoder
// behind request span trees (WriteChromeTraces).

// chromeEvent is one "complete" (ph=X) trace-event record.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeMeta struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// chromeDoc collects the records of one trace document. Lanes are
// (process, thread) pairs, named by laneName the first time an event
// lands on them.
type chromeDoc struct {
	laneName func(tid int) string
	events   []any
	lanes    map[[2]int]bool
}

func newChromeDoc(laneName func(tid int) string) *chromeDoc {
	return &chromeDoc{laneName: laneName, events: []any{}, lanes: map[[2]int]bool{}}
}

func (d *chromeDoc) meta(kind string, pid, tid int, name string) {
	d.events = append(d.events, chromeMeta{Name: kind, Ph: "M", PID: pid, TID: tid, Args: map[string]string{"name": name}})
}

func (d *chromeDoc) event(pid, tid int, name, cat string, start, dur time.Duration, args map[string]string) {
	if lane := [2]int{pid, tid}; !d.lanes[lane] {
		d.lanes[lane] = true
		d.meta("thread_name", pid, tid, d.laneName(tid))
	}
	d.events = append(d.events, chromeEvent{
		Name: name, Cat: cat, Ph: "X",
		TS:  float64(start) / float64(time.Microsecond),
		Dur: float64(dur) / float64(time.Microsecond),
		PID: pid, TID: tid, Args: args,
	})
}

func (d *chromeDoc) write(w io.Writer) error {
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": d.events})
}

// WriteChromeTraces renders finished traces as one Chrome-trace JSON
// document: one process per trace, request-level spans on lane 0 and
// per-op spans on one lane per inter-op worker. Timestamps are
// microseconds relative to the earliest span across all traces.
func WriteChromeTraces(w io.Writer, traces []*Trace) error {
	var t0 time.Time
	spans := make([][]Span, len(traces))
	for i, t := range traces {
		spans[i] = t.Spans()
		for _, s := range spans[i] {
			if t0.IsZero() || s.Start.Before(t0) {
				t0 = s.Start
			}
		}
	}
	d := newChromeDoc(func(tid int) string {
		if tid == 0 {
			return "request"
		}
		return fmt.Sprintf("worker %d", tid-1)
	})
	for i, t := range traces {
		pid := i + 1
		d.meta("process_name", pid, 0, fmt.Sprintf("%s trace=%d", t.Name, t.ID))
		for _, s := range spans[i] {
			d.event(pid, s.Lane, s.Name, "", s.Start.Sub(t0), s.Dur, nil)
		}
	}
	return d.write(w)
}
