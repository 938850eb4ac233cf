package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// setupReps is how many extra set-up-only children a run starts: set-up
// is measured once per process, so the reported setup_s is the median
// over the measuring child and these.
const setupReps = 4

// childTimeout bounds any one child; the whole run must end within the
// driver's 180 s.
const childTimeout = 150 * time.Second

// childReport is what a child process prints: its set-up time and, for
// a measuring child, the window's tallies and metrics.
type childReport struct {
	SetupS   float64          `json:"setup_s"`
	Outcomes [numOutcomes]int `json:"outcomes"` // ok, wrong, errored, refused, expired
	Samples  int              `json:"samples"`  // latency samples behind the percentiles
	Metrics  metrics          `json:"metrics,omitempty"`
}

// childMain runs one workload in this process. Each workload gets a
// fresh process so set-up time and peak memory are its own.
func childMain(spec *benchSpec, c config, mode string, spawnedAt time.Time) (*childReport, error) {
	if err := requireHost(); err != nil {
		return nil, err
	}
	w, err := newWorkload(c.workload)
	if err != nil {
		return nil, err
	}
	var rec *recorder
	if c.traced {
		rec = newRecorder()
	}
	defer w.close()
	if err := w.setup(&c, rec); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rep := &childReport{SetupS: time.Since(spawnedAt).Seconds()}
	if mode == "setup" {
		return rep, nil
	}

	var smp *poolSampler
	if c.traced {
		smp = startPoolSampler()
	}
	g0, cpu0, t0 := readGoStats(), cpuTime(), time.Now()
	t, err := w.measure(&c, rec)
	wall, cpu, g1 := time.Since(t0), cpuTime()-cpu0, readGoStats()
	smp.stop()
	if err != nil {
		return nil, err
	}
	t.wall = wall
	// Read before verify builds its reference model, so the reference
	// is not part of the workload's footprint.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := w.verify(&c, t); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	if !c.quick && !c.traced && t.n[opOK] < minOps {
		return nil, fmt.Errorf("only %d correct ops completed in %v; op_p95_ms needs at least %d (ten samples beyond the percentile); run invalid", t.n[opOK], c.window, minOps)
	}
	m := endToEnd(t, cpu)
	m["peak_rss_mb"] = rss
	m["setup_s"] = rep.SetupS
	m["fail_share"] = ratio(float64(t.failed()), float64(t.attempted()))
	if c.traced {
		goMetrics(m, g0, g1, t)
		smp.metrics(m)
		if err := w.layers(&c, rec, t, m); err != nil {
			return nil, fmt.Errorf("per-layer pass: %w", err)
		}
		if err := writeTrace(spec, c.workload, rec); err != nil {
			return nil, err
		}
	}
	rep.Outcomes, rep.Samples, rep.Metrics = t.n, len(t.lat), m
	return rep, nil
}

func writeTrace(spec *benchSpec, workload string, rec *recorder) error {
	if err := os.MkdirAll(spec.outDir(), 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(spec.outDir(), "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, rec.snapshot()); err != nil {
		f.Close()
		return err
	}
	if rec.dropped > 0 {
		fmt.Fprintf(os.Stderr, "%s: trace keeps the first %d spans, %d later ones dropped\n", workload, maxSpans, rec.dropped)
	}
	return f.Close()
}

// spawn runs one child of this same binary and decodes its report.
func spawn(c config, mode string) (*childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if c.traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe,
		"-child", mode, "-workload", c.workload, "-seed", strconv.FormatInt(c.seed, 10),
		"-window", c.window.String(), "-side", c.side.String(), "-trace", trace,
		"-quick="+strconv.FormatBool(c.quick),
		"-spawned-at", strconv.FormatInt(time.Now().UnixNano(), 10))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child (%s): %w", mode, err)
	}
	var rep childReport
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &rep); err != nil {
		return nil, fmt.Errorf("child (%s) report: %w", mode, err)
	}
	return &rep, nil
}

// runResult is one run of one workload, as stored in a result set.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Samples   int      `json:"samples"`
	SetupRuns int      `json:"setup_runs"`
	Metrics   metrics  `json:"metrics"`
	Measured  []string `json:"measured,omitempty"` // traced: the per-layer names this workload's path produced
}

func (r runResult) measured(name string) bool {
	i := sort.SearchStrings(r.Measured, name)
	return i < len(r.Measured) && r.Measured[i] == name
}

// drive performs one run of one workload from the parent process.
//
// Untraced: setupReps set-up-only children, then the measuring child;
// setup_s is the median over all of them, everything else comes from
// the measuring child. Traced: one short untraced child as the
// tracing-overhead base, then the traced child, which also runs the
// workload's side passes; the untraced child's numbers are never
// reported as end-to-end results.
func drive(spec *benchSpec, name string, seed int64, seconds float64, traced, quick bool) (runResult, error) {
	r := runResult{Workload: name, Seed: seed, Traced: traced}
	total := time.Duration(seconds * float64(time.Second))
	if !traced {
		c := config{workload: name, seed: seed, window: total, quick: quick}
		var setups []float64
		if !quick {
			for i := 0; i < setupReps; i++ {
				rep, err := spawn(c, "setup")
				if err != nil {
					return r, err
				}
				setups = append(setups, rep.SetupS)
			}
		}
		rep, err := spawn(c, "measure")
		if err != nil {
			return r, err
		}
		setups = append(setups, rep.SetupS)
		r.fill(rep)
		r.SetupRuns = len(setups)
		r.Metrics = metrics{}
		for _, m := range spec.EndToEnd {
			r.Metrics[m.Name] = rep.Metrics[m.Name]
		}
		r.Metrics["setup_s"] = median(setups)
		return r, nil
	}

	third := total / 3
	base, err := spawn(config{workload: name, seed: seed, window: third, quick: quick}, "measure")
	if err != nil {
		return r, err
	}
	rep, err := spawn(config{workload: name, seed: seed, window: third, side: third, traced: true, quick: quick}, "measure")
	if err != nil {
		return r, err
	}
	r.fill(rep)
	rep.Metrics["telemetry.trace_overhead_share"] = ratio(rep.Metrics["cpu_ms_per_op"], base.Metrics["cpu_ms_per_op"]) - 1
	r.Metrics = metrics{}
	for _, m := range spec.PerLayer {
		v, ok := rep.Metrics[m.Name]
		if ok {
			r.Measured = append(r.Measured, m.Name)
		}
		r.Metrics[m.Name] = v // 0 when the layer is not on this workload's path
	}
	sort.Strings(r.Measured)
	return r, nil
}

func (r *runResult) fill(rep *childReport) {
	for _, n := range rep.Outcomes {
		r.Attempted += n
	}
	r.Failed, r.Samples = r.Attempted-rep.Outcomes[opOK], rep.Samples
	// Refused and expired requests are admission control doing its job:
	// they fail the operation but are not wrong answers.
	r.Correct = rep.Outcomes[opWrong] == 0 && rep.Outcomes[opErrored] == 0
}

// header records where and how a result set was produced.
type header struct {
	CPUs          int     `json:"cpus"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	Preset        string  `json:"preset"`
	Seed          int64   `json:"seed"`
	WindowSeconds float64 `json:"window_seconds"`
	Traced        bool    `json:"traced"`
	Quick         bool    `json:"quick"`
	Time          string  `json:"time"`
}

func newHeader(seed int64, seconds float64, traced, quick bool) header {
	h := header{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Preset: preset.String(), Seed: seed, WindowSeconds: seconds,
		Traced: traced, Quick: quick, Time: time.Now().UTC().Format(time.RFC3339),
	}
	// The driver's checkout is not a git repository; the commit is
	// known only when the toolchain stamped one into the binary.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// resultSet is one file of results: a header and one or more runs.
// Sample counts travel with each run.
type resultSet struct {
	Header header      `json:"header"`
	Runs   []runResult `json:"runs"`
}

func (s *resultSet) correct() bool {
	for _, r := range s.Runs {
		if !r.Correct {
			return false
		}
	}
	return true
}

// save writes the set under bench/out/, as name if given.
func (s *resultSet) save(spec *benchSpec, name string) (string, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "", err
	}
	b = append(b, '\n')
	if err := os.MkdirAll(spec.outDir(), 0o755); err != nil {
		return "", err
	}
	if name == "" {
		kind, which := "e2e", "all"
		if s.Header.Traced {
			kind = "layers"
		}
		if len(s.Runs) == 1 {
			which = s.Runs[0].Workload
		}
		name = fmt.Sprintf("result-%s-%s-seed%d.json", kind, which, s.Header.Seed)
	}
	path := filepath.Join(spec.outDir(), name)
	return path, os.WriteFile(path, b, 0o644)
}

func loadResultSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
