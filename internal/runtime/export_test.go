package runtime

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// decodeTrace unwraps the Chrome-trace envelope every exporter shares
// (telemetry's encoder): {"traceEvents": [...]}.
func decodeTrace(t *testing.T, b []byte) []map[string]interface{} {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return doc.TraceEvents
}

func TestWriteChromeTrace(t *testing.T) {
	g, x, y, _ := buildAffine(t)
	s := NewSession(g, WithTrace(), WithUnfusedPlans()) // MatMul and Add as two events
	s.MustRun([]*graph.Node{y}, Feeds{x: tensor.Ones(2, 3)})

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, s.Trace()); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, buf.Bytes())
	var complete, meta int
	for _, e := range events {
		switch e["ph"] {
		case "X":
			complete++
			if e["name"] == "" || e["dur"] == nil {
				t.Fatalf("incomplete event: %v", e)
			}
		case "M":
			meta++
		}
	}
	if complete != 2 {
		t.Fatalf("expected 2 op events, got %d", complete)
	}
	if meta == 0 {
		t.Fatal("expected thread-name metadata records")
	}
}

func TestWriteChromeTraceWall(t *testing.T) {
	g, x, y, _ := buildAffine(t)
	s := NewSession(g, WithTrace(), WithInterOpWorkers(2), WithUnfusedPlans())
	s.MustRun([]*graph.Node{y}, Feeds{x: tensor.Ones(2, 3)})

	var buf bytes.Buffer
	if err := WriteChromeTraceWall(&buf, s.Trace()); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, buf.Bytes())
	workers := map[float64]bool{}
	var complete int
	for _, e := range events {
		switch e["ph"] {
		case "X":
			complete++
			if ts := e["ts"].(float64); ts < 0 {
				t.Fatalf("negative wall-relative timestamp: %v", e)
			}
			workers[e["tid"].(float64)] = true
		case "M":
			if !strings.HasPrefix(e["args"].(map[string]interface{})["name"].(string), "worker ") {
				t.Fatalf("wall lanes must be named after workers: %v", e)
			}
		}
	}
	if complete != 2 {
		t.Fatalf("expected 2 op events on the wall timeline, got %d", complete)
	}
	// Both ops carry a wall start even when one lane served them; the
	// lane ids must be inter-op worker indices, not the simulated lanes.
	for tid := range workers {
		if tid < 0 || tid >= 2 {
			t.Fatalf("wall lane %v outside inter-op worker range", tid)
		}
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if events := decodeTrace(t, buf.Bytes()); events == nil || len(events) != 0 {
		t.Fatalf("empty trace should serialize to an empty traceEvents array: %q", buf.String())
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	build := func(seed float32) *graph.Graph {
		g := graph.New()
		w := g.Variable("w", tensor.Full(seed, 3, 2))
		b := g.Variable("b", tensor.Full(seed*2, 2))
		x := g.Placeholder("x", 1, 3)
		ops.Add(ops.MatMul(x, w), b)
		return g
	}
	src := build(7)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := build(0)
	if err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), dst, false); err != nil {
		t.Fatal(err)
	}
	for _, v := range dst.Variables() {
		want := float32(7)
		if v.Name() == "b" {
			want = 14
		}
		for _, x := range v.Value().Data() {
			if x != want {
				t.Fatalf("variable %s restored to %v, want %v", v.Name(), x, want)
			}
		}
	}
}

func TestCheckpointRejectsCorruptMagic(t *testing.T) {
	g := graph.New()
	g.Variable("w", tensor.Ones(1))
	if err := LoadCheckpoint(strings.NewReader("NOPE....."), g, false); err == nil {
		t.Fatal("bad magic should be rejected")
	}
}

func TestCheckpointShapeMismatch(t *testing.T) {
	src := graph.New()
	src.Variable("w", tensor.Ones(2, 2))
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := graph.New()
	dst.Variable("w", tensor.Ones(3))
	if err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), dst, false); err == nil {
		t.Fatal("shape mismatch should be rejected")
	}
}

func TestCheckpointUnknownVariable(t *testing.T) {
	src := graph.New()
	src.Variable("only_in_src", tensor.Ones(1))
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := graph.New()
	dst.Variable("different", tensor.Ones(1))
	if err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), dst, false); err == nil {
		t.Fatal("unknown checkpoint variable should be rejected")
	}
}

func TestCheckpointMissingVariableStrictness(t *testing.T) {
	src := graph.New()
	src.Variable("w", tensor.Full(3, 2))
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := graph.New()
	dst.Variable("w", tensor.New(2))
	dst.Variable("extra", tensor.New(1))
	if err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), dst, false); err == nil {
		t.Fatal("strict load should reject unrestored graph variables")
	}
	if err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), dst, true); err != nil {
		t.Fatalf("lenient load should succeed: %v", err)
	}
	if dst.Variables()[0].Value().Data()[0] != 3 {
		t.Fatal("lenient load should still restore present variables")
	}
}

func TestCheckpointDuplicateNamesRejected(t *testing.T) {
	g := graph.New()
	g.Variable("dup", tensor.Ones(1))
	g.Variable("dup", tensor.Ones(1))
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, g); err == nil {
		t.Fatal("duplicate variable names should be rejected")
	}
}

func TestCheckpointWorkloadWeights(t *testing.T) {
	// Round-trip a real (tiny) workload's weights: train a little,
	// save, reinitialize, load, verify equality.
	g := graph.New()
	w := g.Variable("fc/W", tensor.RandNormal(newTestRNG(), 0, 1, 4, 4))
	loss := ops.Sum(ops.Square(w))
	grads, err := graph.Gradients(loss, []*graph.Node{w})
	if err != nil {
		t.Fatal(err)
	}
	up := ops.ApplySGD(w, grads[0], 0.1)
	s := NewSession(g)
	s.MustRun([]*graph.Node{up}, nil)
	trained := w.Value().Clone()

	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, g); err != nil {
		t.Fatal(err)
	}
	w.Value().Zero()
	if err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), g, false); err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(trained, w.Value()) != 0 {
		t.Fatal("restored weights differ from trained weights")
	}
}

func newTestRNG() *rand.Rand { return rand.New(rand.NewSource(1)) }
