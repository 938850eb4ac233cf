package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	v := seq(200)
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.50, 100}, {0.95, 190}, {0.99, 198}, {1, 200}, {0, 1}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The rule of choosing-metrics §1: a percentile is reported only with
// at least ten samples beyond it. p95 therefore needs 200 samples —
// the reason every workload must complete minOps operations.
func TestTenSamplesBeyond(t *testing.T) {
	if beyond(200, 0.95) != 10 || !supported(200, 0.95) {
		t.Errorf("200 samples must carry p95: beyond = %d", beyond(200, 0.95))
	}
	if supported(199, 0.95) {
		t.Errorf("199 samples must not carry p95: beyond = %d", beyond(199, 0.95))
	}
	if supported(minOps-1, 0.95) || !supported(minOps, 0.95) {
		t.Errorf("minOps = %d is not the p95 threshold", minOps)
	}
	if supported(999, 0.99) || !supported(1000, 0.99) {
		t.Error("p99 needs exactly 1000 samples")
	}
	if got := tailPercentile(seq(999), 0.99); got != 0 {
		t.Errorf("unsupported tail must read 0 (not measured), got %v", got)
	}
	if got := tailPercentile(seq(1000), 0.99); got != 990 {
		t.Errorf("tailPercentile(1..1000, 0.99) = %v, want 990", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4),
// which is what the driver judges spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(5), 1.5, 4.5},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got, want := spread(seq(10)), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
}
