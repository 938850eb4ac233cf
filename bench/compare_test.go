package main

import (
	"bytes"
	"strings"
	"testing"
)

func testSpec() *benchSpec {
	return &benchSpec{
		EndToEnd: []metricSpec{
			{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.05},
			{Name: "op_p95_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		},
		// fail_share was demoted to a per-layer diagnostic: listed, not gated.
		PerLayer: []metricSpec{{Name: "fail_share", Unit: "ratio", Better: "lower"}},
	}
}

func setOf(workload string, runs ...metrics) *resultSet {
	s := &resultSet{}
	for i, m := range runs {
		s.Runs = append(s.Runs, runResult{Workload: workload, Seed: int64(i + 1), Metrics: m})
	}
	return s
}

func TestJudgePair(t *testing.T) {
	higher := metricSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.05}
	lower := metricSpec{Name: "op_p95_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"throughput down 10% is worse", higher, steady, []float64{90, 91, 89, 90}, verdictWorse},
		{"throughput up 10% is improved", higher, steady, []float64{110, 111, 109, 110}, verdictImproved},
		{"throughput down 3% is within 5%", higher, steady, []float64{97, 98, 96, 97}, verdictWithin},
		{"latency up 15% is worse", lower, steady, []float64{115, 116, 114, 115}, verdictWorse},
		{"latency down 15% is improved", lower, steady, []float64{85, 86, 84, 85}, verdictImproved},
		{"latency up 8% is within 10%", lower, steady, []float64{108, 109, 107, 108}, verdictWithin},
		{"spread wider than the bound is unresolved, whatever the medians", higher, []float64{80, 100, 120, 100}, []float64{60, 61, 59, 60}, verdictUnresolved},
		{"a single run each has no spread and is judged on the ratio", lower, []float64{100}, []float64{125}, verdictWorse},
	} {
		if got := judgePair(c.m, "w", c.a, c.b); got.Verdict != c.want {
			t.Errorf("%s: verdict %q (change %+.3f, spread %.3f), want %q", c.name, got.Verdict, got.Change, got.Spread, c.want)
		}
	}
	// Every ratio comes with its base.
	p := judgePair(higher, "w", steady, []float64{90, 91, 89, 90})
	if p.Base != 100 || p.New != 90 || p.NBase != 4 || p.Change < 0.099 || p.Change > 0.101 {
		t.Errorf("unexpected verdict fields: %+v", p)
	}
}

func TestJudgeSetsGatesOnlyEndToEndMetrics(t *testing.T) {
	a := setOf("train-dist", metrics{"ops_per_s": 100, "op_p95_ms": 10, "fail_share": 0.001})
	b := setOf("train-dist", metrics{"ops_per_s": 99, "op_p95_ms": 10.5, "fail_share": 0.5})
	vs := judgeSets(testSpec(), a, b)
	if len(vs) != 2 {
		t.Fatalf("%d verdicts, want one per end-to-end metric: %+v", len(vs), vs)
	}
	var out bytes.Buffer
	if code := reportVerdicts(&out, vs); code != 0 {
		t.Errorf("a demoted metric getting worse failed the comparison:\n%s", out.String())
	}
	for _, want := range []string{"ops_per_s", "op_p95_ms", "train-dist", "B/A", "n=1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table misses %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "fail_share") {
		t.Errorf("demoted metric was judged:\n%s", out.String())
	}

	worse := setOf("train-dist", metrics{"ops_per_s": 80, "op_p95_ms": 10})
	out.Reset()
	if code := reportVerdicts(&out, judgeSets(testSpec(), a, worse)); code != 1 {
		t.Errorf("a 20%% throughput loss passed:\n%s", out.String())
	}
	// A workload only one set ran is not judged.
	if vs := judgeSets(testSpec(), a, setOf("train-fuse", metrics{"ops_per_s": 1})); len(vs) != 0 {
		t.Errorf("judged a workload missing from one set: %+v", vs)
	}
}
