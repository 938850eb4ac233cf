package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// The benchmark runs each workload in a child process of its own
// binary; under go test that binary is the test binary, so TestMain
// routes a "-child" invocation to the program instead of the tests.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestQuickAllWorkloads runs every workload end to end in -quick mode,
// untraced and traced, and holds the output to BENCHMARK.json: every
// end-to-end metric is emitted by every workload, and every per-layer
// metric is measured by at least one. An API rename in serve, dist,
// fuse or runtime therefore breaks this test, not the next perf PR.
func TestQuickAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads (about half a minute)")
	}
	if err := requireHost(); err != nil {
		t.Skip(err)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloadNames))
	}
	measured := map[string]bool{}
	for i, name := range workloadNames {
		if spec.Workloads[i].Name != name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, spec.Workloads[i].Name, name)
		}
		r, err := drive(spec, name, 1, 1, false, true)
		if err != nil {
			t.Fatalf("%s untraced: %v", name, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s untraced: correct=%v attempted=%d failed=%d", name, r.Correct, r.Attempted, r.Failed)
		}
		for _, m := range spec.EndToEnd {
			if v, ok := r.Metrics[m.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (emitted %v); must be measured and never 0", name, m.Name, v, ok)
			}
		}
		tr, err := drive(spec, name, 1, 1, true, true)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if !tr.Correct || tr.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d", name, tr.Correct, tr.Failed)
		}
		for _, m := range spec.PerLayer {
			if _, ok := tr.Metrics[m.Name]; !ok {
				t.Errorf("%s traced: per-layer metric %s missing from the output", name, m.Name)
			}
		}
		for _, n := range tr.Measured {
			measured[n] = true
		}
		if _, err := os.Stat(spec.outDir() + "/trace-" + name + ".json"); err != nil {
			t.Errorf("%s: no Chrome trace written: %v", name, err)
		}
	}
	for _, m := range spec.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s is listed in BENCHMARK.json but no workload measures it", m.Name)
		}
	}
}

// TestResultLine checks the driver's contract on the last line of
// standard output, in both modes.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	if err := requireHost(); err != nil {
		t.Skip(err)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		trace string
		list  []metricSpec
	}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "train-dist", "--seed", "3", "--seconds", "1", "--trace", c.trace, "-quick"}
		if code := realMain(args, &out, &errOut); code != 0 {
			t.Fatalf("exit %d: %s", code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
		}
		if len(line) != 4 {
			t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", line)
		}
		var got resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatal(err)
		}
		if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
			t.Errorf("trace %s: %+v", c.trace, got)
		}
		if len(got.Metrics) != len(c.list) {
			t.Errorf("trace %s: %d metrics, want %d", c.trace, len(got.Metrics), len(c.list))
		}
		for _, m := range c.list {
			if v, ok := got.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v (present %v), want unit %q", c.trace, m.Name, v, ok, m.Unit)
			}
		}
	}
}
