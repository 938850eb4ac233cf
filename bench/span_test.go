package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// A hand-built tree:
//
//	root        0────────────────────────100
//	  a            10───30
//	    leaf          12─20
//	  b                20──────50           (overlaps a)
//	  c                           60────────────120  (runs past root)
func TestSelfTimeFromSpanTree(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{Name: "root", Start: at(0), End: at(100)},
		{Name: "a", Start: at(10), End: at(30), Parent: 1},
		{Name: "b", Start: at(20), End: at(50), Parent: 1},
		{Name: "c", Start: at(60), End: at(120), Parent: 1},
		{Name: "leaf", Start: at(12), End: at(20), Parent: 2},
	}
	// root: children cover [10,50] and [60,100] — the union, clipped to
	// the parent — so 20 ms are its own.
	want := []time.Duration{at(20), at(12), at(30), at(60), at(8)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	tot := totalsByName(spans)
	if r := tot["root"]; r.self != at(20) || r.dur != at(100) || r.count != 1 {
		t.Errorf("root totals = %+v, want self 20ms of 100ms", r)
	}
	if m := tot["a"].medianMS(); m != 20 {
		t.Errorf("median(a) = %v ms, want 20", m)
	}
}

func TestRecorderAndChromeTrace(t *testing.T) {
	var none *recorder
	if id := none.begin("x", 0, 1); id != 0 {
		t.Errorf("nil recorder returned id %d", id)
	}
	none.end(0) // must not panic: untraced runs call it on every op

	rec := newRecorder()
	root := rec.begin("op", 0, 7)
	child := rec.add("layer.call", root, 7, 1, rec.epoch.Add(time.Millisecond), 2*time.Millisecond)
	rec.end(root)
	spans := rec.snapshot()
	if len(spans) != 2 || spans[child-1].Parent != root || spans[child-1].dur() != 2*time.Millisecond {
		t.Fatalf("unexpected spans: %+v", spans)
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(events) != 2 || events[1]["name"] != "layer.call" || events[1]["ph"] != "X" || events[1]["dur"] != 2000.0 {
		t.Errorf("unexpected trace events: %v", events)
	}
}
