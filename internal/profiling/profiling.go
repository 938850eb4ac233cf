// Package profiling aggregates operation traces into the profiles the
// paper analyzes: time by operation type, time by operation class
// (Figure 3's groups A–G), cumulative heavy-operation curves
// (Figure 2), per-step stationarity statistics (Figure 1), and the
// vector-space representation used for workload similarity (Figure 4).
package profiling

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/telemetry"
)

// Profile is the aggregate of one traced run of a workload.
type Profile struct {
	Model string
	Mode  string // "training" or "inference"
	Steps int

	ByType  map[string]time.Duration
	ByClass [graph.NumClasses]time.Duration
	// ClassOfType remembers the class of each op type seen.
	ClassOfType map[string]graph.OpClass
	Total       time.Duration
}

// Collect aggregates events into a profile.
func Collect(model, mode string, steps int, events []runtime.Event) *Profile {
	p := &Profile{
		Model:       model,
		Mode:        mode,
		Steps:       steps,
		ByType:      map[string]time.Duration{},
		ClassOfType: map[string]graph.OpClass{},
	}
	for _, e := range events {
		p.ByType[e.Op] += e.Dur
		p.ByClass[e.Class] += e.Dur
		p.ClassOfType[e.Op] = e.Class
		p.Total += e.Dur
	}
	return p
}

// TypeShare holds one op type's share of total execution time.
type TypeShare struct {
	Op       string
	Class    graph.OpClass
	Time     time.Duration
	Fraction float64
}

// Shares returns op types sorted by descending time share.
func (p *Profile) Shares() []TypeShare {
	out := make([]TypeShare, 0, len(p.ByType))
	for op, d := range p.ByType {
		fr := 0.0
		if p.Total > 0 {
			fr = float64(d) / float64(p.Total)
		}
		out = append(out, TypeShare{Op: op, Class: p.ClassOfType[op], Time: d, Fraction: fr})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// ClassFractions returns the share of each operation class (rows of
// the paper's Figure 3 heat map).
func (p *Profile) ClassFractions() [graph.NumClasses]float64 {
	var out [graph.NumClasses]float64
	if p.Total == 0 {
		return out
	}
	for c, d := range p.ByClass {
		out[c] = float64(d) / float64(p.Total)
	}
	return out
}

// CumPoint is one point of the Figure-2 cumulative curve.
type CumPoint struct {
	Rank       int // 1-based rank of the op type by time
	Op         string
	Cumulative float64 // cumulative fraction of total time
}

// Cumulative returns the sorted cumulative-share curve of Figure 2.
func (p *Profile) Cumulative() []CumPoint {
	shares := p.Shares()
	out := make([]CumPoint, len(shares))
	acc := 0.0
	for i, s := range shares {
		acc += s.Fraction
		out[i] = CumPoint{Rank: i + 1, Op: s.Op, Cumulative: acc}
	}
	return out
}

// HeavyTypes returns how many op types are needed to cover the given
// fraction of execution time (the paper reports 5–15 types for 90%).
func (p *Profile) HeavyTypes(frac float64) int {
	for _, pt := range p.Cumulative() {
		if pt.Cumulative >= frac {
			return pt.Rank
		}
	}
	return len(p.ByType)
}

// PerStepTimes groups events of one op type by step, summing durations
// within each step: the sampling distribution behind Figure 1.
func PerStepTimes(events []runtime.Event, op string) []time.Duration {
	byStep := map[int]time.Duration{}
	maxStep := -1
	for _, e := range events {
		if e.Op != op {
			continue
		}
		byStep[e.Step] += e.Dur
		if e.Step > maxStep {
			maxStep = e.Step
		}
	}
	var out []time.Duration
	for s := 0; s <= maxStep; s++ {
		if d, ok := byStep[s]; ok {
			out = append(out, d)
		}
	}
	return out
}

// StepTotals sums all op durations per step (absent steps, e.g.
// warmup steps trimmed from the trace, are skipped).
func StepTotals(events []runtime.Event) []time.Duration {
	byStep := map[int]time.Duration{}
	maxStep := -1
	for _, e := range events {
		byStep[e.Step] += e.Dur
		if e.Step > maxStep {
			maxStep = e.Step
		}
	}
	var out []time.Duration
	for s := 0; s <= maxStep; s++ {
		if d, ok := byStep[s]; ok {
			out = append(out, d)
		}
	}
	return out
}

// Stationarity summarizes the distribution of per-step times.
type Stationarity struct {
	Samples  int
	Mean     time.Duration
	Std      time.Duration
	CoV      float64 // coefficient of variation (std/mean)
	Min, Max time.Duration
	// Drift is the relative difference between the mean of the first
	// and second halves of the series; near zero means stationary.
	Drift float64
}

// Stationary computes distribution statistics over per-step times.
func Stationary(series []time.Duration) Stationarity {
	st := Stationarity{Samples: len(series)}
	if len(series) == 0 {
		return st
	}
	var sum, sum2 float64
	st.Min, st.Max = series[0], series[0]
	for _, d := range series {
		v := float64(d)
		sum += v
		sum2 += v * v
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
	}
	n := float64(len(series))
	mean := sum / n
	varr := sum2/n - mean*mean
	if varr < 0 {
		varr = 0
	}
	st.Mean = time.Duration(mean)
	st.Std = time.Duration(sqrt(varr))
	if mean > 0 {
		st.CoV = float64(st.Std) / mean
	}
	half := len(series) / 2
	if half > 0 {
		var a, b float64
		for _, d := range series[:half] {
			a += float64(d)
		}
		for _, d := range series[half:] {
			b += float64(d)
		}
		a /= float64(half)
		b /= float64(len(series) - half)
		if a > 0 {
			st.Drift = (b - a) / a
		}
	}
	return st
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// Histogram bins a duration series into n equal-width buckets.
func Histogram(series []time.Duration, n int) (edges []time.Duration, counts []int) {
	if len(series) == 0 || n < 1 {
		return nil, nil
	}
	lo, hi := series[0], series[0]
	for _, d := range series {
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	edges = make([]time.Duration, n+1)
	counts = make([]int, n)
	w := (hi - lo) / time.Duration(n)
	if w == 0 {
		w = 1
	}
	for i := range edges {
		edges[i] = lo + time.Duration(i)*w
	}
	for _, d := range series {
		b := int((d - lo) / w)
		if b >= n {
			b = n - 1
		}
		counts[b]++
	}
	return edges, counts
}

// Vectorize projects profiles into a common op-type vector space: the
// union of all op types, each coordinate the fraction of that
// profile's time. This is the representation clustered in Figure 4.
func Vectorize(profiles []*Profile) (types []string, vectors [][]float64) {
	seen := map[string]bool{}
	for _, p := range profiles {
		for op := range p.ByType {
			seen[op] = true
		}
	}
	types = make([]string, 0, len(seen))
	for op := range seen {
		types = append(types, op)
	}
	sort.Strings(types)
	vectors = make([][]float64, len(profiles))
	for i, p := range profiles {
		v := make([]float64, len(types))
		if p.Total > 0 {
			for j, op := range types {
				v[j] = float64(p.ByType[op]) / float64(p.Total)
			}
		}
		vectors[i] = v
	}
	return types, vectors
}

// ---- inter-op parallelism (characterization axis added with the
// parallel plan scheduler; see internal/runtime/sched.go) ----

// InterOpStats summarizes a trace's inter-op structure per workload:
// how much op time lies on the critical path, the speedup the traced
// schedule achieved, and the bound any schedule could achieve.
type InterOpStats struct {
	Steps int
	Ops   int
	// Serial is the summed device time of every op — the 1-worker
	// makespan.
	Serial time.Duration
	// Makespan is the simulated elapsed time of the traced schedule,
	// summed over steps.
	Makespan time.Duration
	// CritPath is the summed per-step critical path — the minimum
	// elapsed time any inter-op schedule could reach.
	CritPath time.Duration
	// Achieved is Serial/Makespan: the realized inter-op speedup.
	Achieved float64
	// Achievable is Serial/CritPath: the workload's inter-op speedup
	// bound, set by its dependency structure alone.
	Achievable float64
	// Workers is the number of distinct scheduler lanes observed.
	Workers int
	// Occupancy is each lane's busy fraction of the makespan, indexed
	// by worker id.
	Occupancy []float64
}

// InterOp aggregates trace events into inter-op statistics. Events
// are grouped by step (each Run's timeline is independent): per step
// the serial time is the op-duration sum, the makespan is the span
// from earliest start to latest finish, and the critical path is the
// maximum Event.CP; the totals sum the steps.
func InterOp(events []runtime.Event) InterOpStats {
	st := InterOpStats{}
	if len(events) == 0 {
		return st
	}
	type stepAgg struct {
		serial   time.Duration
		lo, hi   time.Duration
		crit     time.Duration
		hasSpan  bool
		busyByID map[int]time.Duration
	}
	steps := map[int]*stepAgg{}
	maxWorker := 0
	for _, e := range events {
		a := steps[e.Step]
		if a == nil {
			a = &stepAgg{busyByID: map[int]time.Duration{}}
			steps[e.Step] = a
		}
		st.Ops++
		a.serial += e.Dur
		if !a.hasSpan || e.Start < a.lo {
			a.lo = e.Start
		}
		if !a.hasSpan || e.Start+e.Dur > a.hi {
			a.hi = e.Start + e.Dur
		}
		a.hasSpan = true
		if e.CP > a.crit {
			a.crit = e.CP
		}
		a.busyByID[e.Worker] += e.Dur
		if e.Worker > maxWorker {
			maxWorker = e.Worker
		}
	}
	busy := make([]time.Duration, maxWorker+1)
	for _, a := range steps {
		st.Steps++
		st.Serial += a.serial
		st.Makespan += a.hi - a.lo
		st.CritPath += a.crit
		for w, d := range a.busyByID {
			busy[w] += d
		}
	}
	if st.Makespan > 0 {
		st.Achieved = float64(st.Serial) / float64(st.Makespan)
	}
	if st.CritPath > 0 {
		st.Achievable = float64(st.Serial) / float64(st.CritPath)
	}
	st.Occupancy = make([]float64, len(busy))
	for w, d := range busy {
		if d > 0 {
			st.Workers++
		}
		if st.Makespan > 0 {
			st.Occupancy[w] = float64(d) / float64(st.Makespan)
		}
	}
	return st
}

// ---- intra-op parallelism: real vs. modeled ----

// AtWidth re-prices a chunk-recorded CPU trace (runtime.WithChunkRecord)
// at intra-op width w, the paper's Fig. 6 axis. Each event's Dur
// becomes its time outside its regions plus, per region, the makespan
// of its chunks list-scheduled in chunk order onto the earliest-free
// of w lanes (ties to the lowest lane), clamped at 0. Chunks do not
// depend on width, so one record prices every width. Events without
// regions keep their Dur; Start, CP and every other field keep the
// recorded run's values. w < 1 is treated as 1.
func AtWidth(events []runtime.Event, w int) []runtime.Event {
	lanes := make([]time.Duration, max(w, 1))
	out := make([]runtime.Event, len(events))
	for i, e := range events {
		for _, r := range e.Regions {
			clear(lanes)
			for _, d := range r {
				l := 0
				for j := 1; j < len(lanes); j++ {
					if lanes[j] < lanes[l] {
						l = j
					}
				}
				lanes[l] += d
				e.Dur -= d
			}
			e.Dur += slices.Max(lanes)
		}
		e.Dur = max(e.Dur, 0)
		out[i] = e
	}
	return out
}

// IntraOpStats puts modeled and measured intra-op speedup side by side
// for one workload: the modeled speedup prices a chunk-recorded run at
// Workers lanes (AtWidth), the measured one is the wall speedup of
// real parallel pools (WithIntraOpWorkers — chunks actually executing
// on shared-pool goroutines). On a host with enough free cores the two
// should roughly agree; their ratio is the model's error, its optimism
// about memory bandwidth and scheduling overhead.
type IntraOpStats struct {
	Workers int
	// SerialSim and ModeledSim are simulated op time per run at width
	// 1 and Workers, priced from one chunk record.
	SerialSim, ModeledSim time.Duration
	// SerialWall and ParallelWall are host wall time per run at width
	// 1 and Workers (parallel pools).
	SerialWall, ParallelWall time.Duration
	// Modeled is SerialSim/ModeledSim; Measured is
	// SerialWall/ParallelWall.
	Modeled, Measured float64
	// Error is Modeled/Measured (0 when Measured is 0): above 1 the
	// model promises more speedup than the host delivered.
	Error float64
}

// IntraOp assembles the side-by-side comparison from the four timing
// measurements.
func IntraOp(workers int, serialSim, modeledSim, serialWall, parallelWall time.Duration) IntraOpStats {
	st := IntraOpStats{
		Workers:   workers,
		SerialSim: serialSim, ModeledSim: modeledSim,
		SerialWall: serialWall, ParallelWall: parallelWall,
	}
	if modeledSim > 0 {
		st.Modeled = float64(serialSim) / float64(modeledSim)
	}
	if parallelWall > 0 {
		st.Measured = float64(serialWall) / float64(parallelWall)
	}
	if st.Measured > 0 {
		st.Error = st.Modeled / st.Measured
	}
	return st
}

// ---- data-parallel training: achieved vs achievable scaling ----

// TrainScalingStats compares a data-parallel training run against its
// single-replica baseline for one workload. Achieved is the realized
// wall-clock speedup. Achievable is the Amdahl bound the run's own
// phase structure admits: the gradient phase parallelizes across
// replicas (its serial work is GradSum, its parallel wall the
// slowest replica, Grad), while the all-reduce and the replicated
// apply phase are step-serial — so no schedule can beat
// (GradSum + Reduce + Apply) / (Grad + Reduce + Apply). The gap
// between the two is scheduling overhead plus host-core scarcity, the
// same decomposition the inter-op profile reports.
type TrainScalingStats struct {
	Replicas int
	// Serial and Parallel are the phase walls summed over the timed
	// steps at 1 replica and at Replicas (a trainer's PhaseSum).
	Serial, Parallel telemetry.PhaseSample
	// Achieved is Serial.Wall/Parallel.Wall; Achievable the phase-
	// structure bound above, from Parallel.
	Achieved, Achievable float64
}

// TrainScaling assembles the comparison from the two runs' phase sums.
func TrainScaling(replicas int, serial, parallel telemetry.PhaseSample) TrainScalingStats {
	st := TrainScalingStats{Replicas: replicas, Serial: serial, Parallel: parallel}
	if parallel.Wall > 0 {
		st.Achieved = float64(serial.Wall) / float64(parallel.Wall)
	}
	fixed := parallel.Reduce + parallel.Apply
	if denom := parallel.Grad + fixed; denom > 0 {
		st.Achievable = float64(parallel.GradSum+fixed) / float64(denom)
	}
	return st
}

// String renders a compact textual profile.
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s, %d steps, total %v)\n", p.Model, p.Mode, p.Steps, p.Total)
	for _, s := range p.Shares() {
		if s.Fraction < 0.01 {
			continue
		}
		fmt.Fprintf(&b, "  %-24s %-24s %6.2f%%\n", s.Op, s.Class, 100*s.Fraction)
	}
	return b.String()
}
