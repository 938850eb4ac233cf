package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	_ "repro/internal/models/all"
)

// Fixed shape of every run (ISSUE 12, "Host sizing"): one preset, one
// warm-up length, one check depth. They are constants, not flags,
// because a number is only comparable with the next PR's if nothing
// about the run can be tuned.
const (
	preset      = core.PresetSmall
	warmSteps   = 3  // run / train workloads
	warmReqs    = 32 // serve workloads; also the number of distinct examples
	checkSteps  = 20 // steps compared bit for bit with a reference session/trainer
	minOps      = 200
	maxLateP95  = 5 * time.Millisecond // the host's timers tick at 1.1 ms and the generator shares the one processor
	serveBatch  = 8
	serveDelay  = 500 * time.Microsecond
	openRate    = 2000.0 // req/s; fixed, never derived at run time (README: about half of one processor)
	openBatch   = 0.5    // share of arrivals on the batch lane
	openBudget  = 250 * time.Millisecond
	openQueue   = 256 // per lane: a stall of the one processor queues requests instead of refusing them
	trainChunks = 4
	fuseWidth   = 4
)

// config is what one child process is asked to do.
type config struct {
	workload string
	seed     int64
	window   time.Duration // measured window
	side     time.Duration // budget for the traced run's side passes
	traced   bool
	quick    bool // short window: checks on, the ≥200-ops and lateness rules off
}

// outcome classifies one operation.
type outcome uint8

const (
	opOK      outcome = iota
	opWrong           // completed, output failed its check
	opErrored         // the call returned an unexpected error
	opRefused         // rejected or shed by admission control
	opExpired         // deadline passed before execution
	numOutcomes
)

// tally accumulates the operations of one measured window.
type tally struct {
	lat  []float64 // ms, one per completed op that passed its inline check
	n    [numOutcomes]int
	wall time.Duration // the window as measured, first op to last completion
}

// opsPerS is correct operations per second of measured wall.
func (t *tally) opsPerS() float64 { return ratio(float64(t.n[opOK]), t.wall.Seconds()) }

func (t *tally) add(o outcome, lat time.Duration) {
	t.n[o]++
	if o == opOK {
		t.lat = append(t.lat, ms(lat))
	}
}

func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	for i := range t.n {
		t.n[i] += o.n[i]
	}
}

// demote moves k ops from correct to wrong: the run and train
// workloads learn about a mismatch only after the window, when the
// reference session has replayed the first steps.
func (t *tally) demote(k int) {
	if k > t.n[opOK] {
		k = t.n[opOK]
	}
	t.n[opOK] -= k
	t.n[opWrong] += k
}

func (t *tally) attempted() int {
	var n int
	for _, c := range t.n {
		n += c
	}
	return n
}

func (t *tally) failed() int { return t.attempted() - t.n[opOK] }

// metrics maps a metric name of BENCHMARK.json to its measured value.
type metrics map[string]float64

// workload is one of the six named workloads. The methods are called
// in this order, each once: setup (everything a user waits for before
// the first operation: model build, engine/trainer construction, plan
// compile, warm-up), measure (the timed window), verify (output checks
// that need a reference built after the window, so the reference never
// inflates set-up time or peak memory), layers (traced runs only: the
// per-layer numbers and side passes), close.
type workload interface {
	setup(c *config, rec *recorder) error
	measure(c *config, rec *recorder) (*tally, error)
	verify(c *config, t *tally) error
	layers(c *config, rec *recorder, t *tally, out metrics) error
	close()
}

// windowOpen is the loop condition of the closed-loop run and train
// workloads: step for the window, and past it — up to twice as long —
// until minOps operations have completed, so that a slow host still
// yields the ten samples beyond p95 instead of an invalid run. Quick
// and traced runs report no gated percentile and never extend.
func windowOpen(c *config, start time.Time, done int) bool {
	el := time.Since(start)
	if el < c.window {
		return true
	}
	return !c.quick && !c.traced && done < minOps && el < 2*c.window
}

// workloadNames is the fixed order the set runs in.
var workloadNames = []string{
	"serve-http-closed", "serve-open-mixed",
	"run-conv-train", "run-rnn-infer",
	"train-dist", "train-fuse",
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "serve-http-closed":
		return &serveHTTP{}, nil
	case "serve-open-mixed":
		return &serveOpen{}, nil
	case "run-conv-train":
		return &runLoop{model: "alexnet", training: true, intraOp: width, interOp: 1}, nil
	case "run-rnn-infer":
		return &runLoop{model: "seq2seq", training: false, intraOp: 1, interOp: width}, nil
	case "train-dist":
		return &trainDist{}, nil
	case "train-fuse":
		return &trainFuse{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// endToEnd derives the end-to-end metrics every workload reports from
// its window. Throughput and cost are per correct operation, so a
// change that answers faster by answering wrongly gains nothing.
func endToEnd(t *tally, cpu time.Duration) metrics {
	lat := append([]float64(nil), t.lat...)
	sort.Float64s(lat)
	return metrics{
		"ops_per_s":     t.opsPerS(),
		"op_p50_ms":     percentile(lat, 0.50),
		"op_p95_ms":     tailPercentile(lat, 0.95),
		"cpu_ms_per_op": ratio(ms(cpu), float64(t.n[opOK])),
	}
}

// newModel builds one registered workload model at the benchmark's
// preset. batch > 0 overrides the preset batch (serving graphs are
// built at the micro-batching window).
func newModel(name string, seed int64, batch int) (core.Model, error) {
	m, err := core.New(name)
	if err != nil {
		return nil, err
	}
	if err := m.Setup(core.Config{Preset: preset, Seed: seed, Batch: batch}); err != nil {
		return nil, fmt.Errorf("setup %s: %w", name, err)
	}
	return m, nil
}
