package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary: nothing inside the program under test is
// touched. Parent is the 1-based index of the span that caused this
// one (0 for a root); spans of one operation share Op.
type span struct {
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
	Parent int32
	Op     int64
	Lane   int // Chrome-trace thread: 0 for the caller, 1+worker for op events
}

func (s span) dur() time.Duration { return s.End - s.Start }

// maxSpans bounds the recorder's memory: a traced window over a
// recurrent model produces millions of op events, of which the first
// few hundred thousand are plenty for both the self-time aggregates
// and a readable Chrome trace.
const maxSpans = 400_000

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	dropped int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span now and returns its id (0 when not recorded).
func (r *recorder) begin(name string, parent int32, op int64) int32 {
	if r == nil {
		return 0
	}
	return r.add(name, parent, op, 0, time.Now(), -1)
}

// end closes a span opened by begin.
func (r *recorder) end(id int32) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span measured elsewhere (an existing collector's span
// or a runtime.Event); d < 0 leaves it open for end.
func (r *recorder) add(name string, parent int32, op int64, lane int, start time.Time, d time.Duration) int32 {
	if r == nil {
		return 0
	}
	s := span{Name: name, Start: start.Sub(r.epoch), Parent: parent, Op: op, Lane: lane}
	s.End = s.Start
	if d > 0 {
		s.End += d
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return 0
	}
	r.spans = append(r.spans, s)
	return int32(len(r.spans))
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Children may overlap each
// other (inter-op lanes) and are clipped to the parent, so the union —
// not the sum — is subtracted and self time is never negative.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int32][]int, len(spans)/2)
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		ks := kids[int32(i+1)]
		if len(ks) == 0 {
			continue
		}
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		var covered time.Duration
		edge := s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// nameTotals aggregates spans by name.
type nameTotals struct {
	count     int
	dur, self time.Duration
	durs      []float64 // ms, for medians
}

func totalsByName(spans []span) map[string]*nameTotals {
	self := selfTimes(spans)
	out := map[string]*nameTotals{}
	for i, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &nameTotals{}
			out[s.Name] = t
		}
		t.count++
		t.dur += s.dur()
		t.self += self[i]
		t.durs = append(t.durs, ms(s.dur()))
	}
	return out
}

func (t *nameTotals) medianMS() float64 {
	if t == nil {
		return 0
	}
	return median(t.durs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeChromeTrace renders spans as a Chrome-trace ("trace event")
// JSON array, loadable in chrome://tracing or ui.perfetto.dev: one
// complete event per span, lanes as threads, op id and parent in args.
func writeChromeTrace(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	for i, s := range spans {
		name, err := json.Marshal(s.Name)
		if err != nil {
			return err
		}
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		_, err = fmt.Fprintf(bw, `{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"op":%d}}%s`+"\n",
			name, s.Lane, float64(s.Start)/1e3, float64(s.dur())/1e3, i+1, s.Parent, s.Op, sep)
		if err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
