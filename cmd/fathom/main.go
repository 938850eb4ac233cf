// Command fathom runs the Fathom workload suite, regenerates the
// paper's tables and figures, and serves workloads over HTTP.
//
// Usage:
//
//	fathom list                         # registered workloads (Table II)
//	fathom run   -model alexnet ...     # profile one workload
//	fathom profile -interop 4 ...       # inter-op parallelism report
//	fathom train -replicas 4 ...        # data-parallel training scaling
//	fathom serve -model alexnet ...     # HTTP/JSON inference serving
//	fathom loadtest -model memnet ...   # open-loop overload test -> BENCH_serve.json
//	fathom table1 | table2              # the paper's tables
//	fathom fig1 | fig2 | fig3 | fig4 | fig5 | fig6 | overhead
//	fathom all                          # everything, optionally to -out
//
// Common flags: -preset ref|small|tiny, -steps N, -warmup N, -seed N,
// -intraop N (real intra-op on the shared pool; every profile also
// records kernel chunks, from which modeled widths are priced),
// -interop N, -pool N (shared worker-pool size),
// -device cpu|gpu, -mode training|inference, -out DIR. Serving flags:
// -addr, -sessions, -maxbatch, -maxdelay, -queue, -deadline, plus
// observability: -tracesample N (trace every Nth request), -tracedir
// DIR (periodic Chrome-trace dumps), -pprof (mount /debug/pprof);
// /metrics always serves Prometheus text. Load-test flags: -qps (0 =
// measure capacity), -duration, -arrival poisson|uniform, -batchfrac,
// -bench FILE. Training: -trace dumps per-step phase telemetry.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/loadgen"
	_ "repro/internal/models/all"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	presetName := fs.String("preset", "ref", "workload scale: ref, small or tiny")
	steps := fs.Int("steps", 0, "measured steps per run (0 = experiment default)")
	warmup := fs.Int("warmup", 0, "warmup steps per run (0 = experiment default)")
	seed := fs.Int64("seed", 1, "random seed")
	intraop := fs.Int("intraop", 1, "real intra-op workers on the shared pool (run, profile, serve)")
	interop := fs.Int("interop", 1, "inter-op scheduler width (run, profile, serve)")
	poolSize := fs.Int("pool", 0, "shared worker-pool size (0 = max(2, GOMAXPROCS))")
	device := fs.String("device", "cpu", "cpu or gpu (modeled)")
	mode := fs.String("mode", "training", "training or inference")
	model := fs.String("model", "", "workload name (run, fig6); comma-separated list (serve)")
	outDir := fs.String("out", "", "directory for CSV outputs (optional)")
	addr := fs.String("addr", "localhost:7711", "listen address (serve)")
	sessions := fs.Int("sessions", 2, "worker sessions per served model (serve)")
	maxBatch := fs.Int("maxbatch", 8, "micro-batch window: max coalesced requests per run; the graph is also built at each power of two below it, and a batch runs on the smallest build that holds it (serve)")
	maxDelay := fs.Duration("maxdelay", 2*time.Millisecond, "max wait for a micro-batch to fill (serve)")
	heads := fs.Int("heads", 0, "attention head-count override for multi-head workloads; 0 = preset default, must divide the embedding dim (run, serve)")
	replicas := fs.Int("replicas", 4, "data-parallel model replicas (train)")
	chunks := fs.Int("chunks", 4, "micro-batch chunks per global step; replicas must divide it (train)")
	fuseWidth := fs.Int("fuse", 0, "horizontal fusion width: also train K instances in one fused graph, 0 = off (train)")
	queueLen := fs.Int("queue", 0, "admission queue cap per priority lane, 0 = 4x maxbatch (serve, loadtest)")
	deadline := fs.Duration("deadline", 0, "per-request deadline budget, 0 = none for serve / 250ms for loadtest (serve, loadtest)")
	qps := fs.Float64("qps", 0, "1x-stage offered rate; 0 measures engine capacity first (loadtest)")
	ltDur := fs.Duration("duration", 2*time.Second, "per-stage duration (loadtest)")
	arrival := fs.String("arrival", "poisson", "arrival distribution: poisson or uniform (loadtest)")
	batchFrac := fs.Float64("batchfrac", 0.5, "fraction of traffic on the batch priority lane (loadtest)")
	benchOut := fs.String("bench", "BENCH_serve.json", "load-test result file; with -out, written inside it (loadtest)")
	traceSample := fs.Int("tracesample", 0, "trace every Nth request end to end, 0 = off (serve)")
	traceDir := fs.String("tracedir", "", "directory for periodic Chrome-trace dumps of sampled requests; implies -tracesample 1000 if unset (serve)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof on the serve mux (serve)")
	trainTrace := fs.Bool("trace", false, "dump per-step sample/grad/reduce/apply phase telemetry per workload (train)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	preset, err := core.ParsePreset(*presetName)
	if err != nil {
		fatal(err)
	}
	if *poolSize > 0 {
		sched.SetDefaultSize(*poolSize)
	}
	// Head-count overrides are validated twice: non-negative here, and
	// divisibility (embed % heads == 0) by the workload's Setup, which
	// knows the preset's embedding dim and fails with a clear error.
	if *heads < 0 {
		fatal(fmt.Errorf("-heads %d must be >= 0 (0 keeps the preset default)", *heads))
	}
	opts := experiments.Options{Preset: preset, Steps: *steps, Warmup: *warmup, Seed: *seed}

	emit := func(r experiments.Result) {
		fmt.Printf("== %s ==\n%s\n", r.Title, r.Text)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*outDir, r.ID+".csv")
			if err := os.WriteFile(path, []byte(r.CSV), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("(csv written to %s)\n\n", path)
		}
	}

	switch cmd {
	case "list":
		for _, name := range core.Names() {
			m, err := core.New(name)
			if err != nil {
				fatal(err)
			}
			meta := m.Meta()
			fmt.Printf("%-10s %d  %-22s %-14s %s\n", name, meta.Year, meta.Style, meta.Task, meta.Dataset)
		}
	case "run":
		if *model == "" {
			fatal(fmt.Errorf("run requires -model"))
		}
		md, err := core.ParseMode(*mode)
		if err != nil {
			fatal(err)
		}
		st := *steps
		if st == 0 {
			st = 4
		}
		res, err := core.SetupAndRun(*model, core.Config{Preset: preset, Seed: *seed, Heads: *heads}, core.RunOptions{
			Mode: md, Steps: st, Warmup: *warmup, IntraOp: *intraop, InterOp: *interop, Device: *device, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s %s on %s, %d steps (%d intra-op, %d inter-op): %v/step simulated, %v/step wall\n\n",
			*model, md, *device, st, *intraop, *interop,
			res.SimTime/time.Duration(st), res.WallTime/time.Duration(st))
		fmt.Println(res.Profile)
	case "profile":
		// Parallelism characterization across both axes: per workload,
		// how much op time is on the critical path, the inter-op
		// speedup the scheduler achieved at -interop vs the
		// dependency-structure bound, real vs modeled intra-op speedup
		// at -intraop and the model's error. Emits CSV with -out like
		// the fig commands.
		md, err := core.ParseMode(*mode)
		if err != nil {
			fatal(err)
		}
		var names []string
		if *model != "" {
			names = strings.Split(*model, ",")
		}
		must(experiments.ProfileParallel(
			experiments.Options{Preset: preset, Steps: *steps, Warmup: *warmup, Seed: *seed}, md, *interop, *intraop, names, *device))(emit)
	case "train":
		// Data-parallel training: replicate each workload over shards
		// of its global batch on the shared pool, report achieved vs
		// achievable scaling, and live-check the bit-identical-across-
		// replica-counts contract. With -fuse K, additionally train a
		// width-K horizontally fused array per workload. Emits CSV with
		// -out; -trace adds the per-step phase breakdown of the same
		// runs behind the aggregate numbers.
		validateTrainFlags(*replicas, *chunks, *fuseWidth)
		var names []string
		if *model != "" {
			names = strings.Split(*model, ",")
		}
		res, phases, err := experiments.TrainPhases(opts, *replicas, *chunks, *intraop, *fuseWidth, names)
		if err != nil {
			fatal(err)
		}
		emit(res)
		if *trainTrace {
			emit(phases)
		}
	case "serve":
		if *model == "" {
			fatal(fmt.Errorf("serve requires -model (comma-separated workload names)"))
		}
		dev, err := core.NewDevice(*device)
		if err != nil {
			fatal(err)
		}
		srv := serve.NewServer()
		// Telemetry wiring: -tracedir implies sampling; the collector is
		// shared by the HTTP layer (samples at admission) and every
		// engine (builds the span tree), so the sampling decision is
		// made exactly once per request.
		sample := *traceSample
		if *traceDir != "" && sample <= 0 {
			sample = 1000
		}
		var collector *telemetry.TraceCollector
		if sample > 0 {
			collector = telemetry.NewTraceCollector(sample, 256)
		}
		seen := map[string]bool{}
		for _, name := range strings.Split(*model, ",") {
			name = strings.TrimSpace(name)
			if seen[name] {
				continue
			}
			seen[name] = true
			m, err := core.New(name)
			if err != nil {
				fatal(err)
			}
			// Build the graph's batch axis at the micro-batch window so
			// coalesced requests fill one compiled-plan run.
			if err := m.Setup(core.Config{Preset: preset, Seed: *seed, Batch: *maxBatch, Heads: *heads}); err != nil {
				fatal(fmt.Errorf("setup %s: %w", name, err))
			}
			eng, err := serve.New(m, serve.Options{
				Sessions:        *sessions,
				MaxBatch:        *maxBatch,
				MaxDelay:        *maxDelay,
				Seed:            *seed,
				Device:          dev,
				InterOpWorkers:  *interop,
				IntraOpWorkers:  *intraop,
				QueueLen:        *queueLen,
				DefaultDeadline: *deadline,
				Trace:           collector,
			})
			if err != nil {
				fatal(err)
			}
			defer eng.Close()
			srv.Register(eng)
			sig := eng.Signature()
			fmt.Printf("serving %-10s  inputs %v  outputs %v  maxbatch %d\n",
				name, sig.InputNames(), sig.OutputNames(), eng.MaxBatch())
		}
		srv.EnableTelemetry(telemetry.Default(), collector)
		if *pprofOn {
			srv.EnablePprof()
		}
		fmt.Printf("\nlistening on http://%s\n", *addr)
		fmt.Printf("  POST /v1/models/%s:infer   {\"inputs\": {...}}\n", srv.Names()[0])
		fmt.Println("  GET  /v1/models  /healthz  /stats  /metrics")
		if collector != nil {
			fmt.Printf("  GET  /debug/trace (sampling 1/%d requests)\n", sample)
		}
		if *pprofOn {
			fmt.Println("  GET  /debug/pprof/")
		}
		httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		drainStop := make(chan struct{})
		drainDone := make(chan struct{})
		if *traceDir != "" {
			if err := os.MkdirAll(*traceDir, 0o755); err != nil {
				fatal(err)
			}
			go drainTraces(collector, *traceDir, drainStop, drainDone)
		} else {
			close(drainDone)
		}
		errc := make(chan error, 1)
		go func() { errc <- httpSrv.ListenAndServe() }()
		select {
		case err := <-errc:
			fatal(err)
		case <-ctx.Done():
			fmt.Println("\nshutting down")
			shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = httpSrv.Shutdown(shctx)
			// Stop the drainer only after in-flight requests finished so
			// the final flush captures the last interval's traces.
			close(drainStop)
			<-drainDone
		}
	case "loadtest":
		// Serving robustness: drive one engine open-loop at
		// 0.5x/1x/2x of its measured capacity with mixed-priority
		// traffic and a deadline budget, and persist the goodput/
		// shed-rate/latency sweep as BENCH_serve.json — the serving
		// perf trajectory later PRs diff against.
		arr, err := loadgen.ParseArrival(*arrival)
		if err != nil {
			fatal(err)
		}
		name := *model
		if name == "" {
			name = "memnet"
		}
		res, rep, err := experiments.LoadTest(opts, experiments.LoadTestOptions{
			Model:     name,
			QPS:       *qps,
			Duration:  *ltDur,
			Arrival:   arr,
			BatchFrac: *batchFrac,
			Deadline:  *deadline,
			Sessions:  *sessions,
			MaxBatch:  *maxBatch,
			MaxDelay:  *maxDelay,
			QueueLen:  *queueLen,
			InterOp:   *interop,
			IntraOp:   *intraop,
		})
		if err != nil {
			fatal(err)
		}
		emit(res)
		writeBench(rep, *benchOut, *outDir)
	case "table1":
		emit(experiments.Table1())
	case "table2":
		emit(experiments.Table2())
	case "fig1":
		must(experiments.Fig1(opts))(emit)
	case "fig2":
		must(experiments.Fig2(opts))(emit)
	case "fig3":
		must(experiments.Fig3(opts))(emit)
	case "fig4":
		must(experiments.Fig4(opts))(emit)
	case "fig5":
		must(experiments.Fig5(opts))(emit)
	case "fig6":
		models := experiments.Fig6Models()
		if *model != "" {
			models = strings.Split(*model, ",")
		}
		for _, m := range models {
			must(experiments.Fig6(opts, m))(emit)
		}
	case "overhead":
		must(experiments.Overhead(opts))(emit)
	case "ablation":
		must(experiments.Ablation(opts))(emit)
	case "all":
		emit(experiments.Table1())
		emit(experiments.Table2())
		must(experiments.Fig1(opts))(emit)
		// Profile the suite once and reuse it for Figures 2–4.
		suite, err := experiments.ProfileSuite(opts, core.ModeTraining)
		if err != nil {
			fatal(err)
		}
		emit(experiments.Fig2From(suite))
		emit(experiments.Fig3From(suite))
		emit(experiments.Fig4From(suite))
		must(experiments.Fig5(opts))(emit)
		for _, m := range experiments.Fig6Models() {
			must(experiments.Fig6(opts, m))(emit)
		}
		must(experiments.ProfileParallel(opts, core.ModeTraining, 4, 4, nil, ""))(emit)
		validateTrainFlags(*replicas, *chunks, *fuseWidth)
		must(experiments.TrainScaling(opts, *replicas, *chunks, 1, *fuseWidth, nil))(emit)
		// Short serving overload sweep: keep `all` runs tractable while
		// still exercising the admission path and refreshing the bench
		// trajectory file.
		ltRes, ltRep, err := experiments.LoadTest(opts, experiments.LoadTestOptions{
			Model: "memnet", Duration: 500 * time.Millisecond, BatchFrac: *batchFrac,
		})
		if err != nil {
			fatal(err)
		}
		emit(ltRes)
		writeBench(ltRep, *benchOut, *outDir)
		must(experiments.Overhead(opts))(emit)
		must(experiments.Ablation(opts))(emit)
	default:
		usage()
		os.Exit(2)
	}
}

// drainTraces periodically empties the trace collector into numbered
// Chrome-trace files under dir (open in chrome://tracing or Perfetto),
// with a final flush when the server shuts down so sampled requests
// from the last interval aren't lost.
func drainTraces(tc *telemetry.TraceCollector, dir string, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(10 * time.Second)
	defer tick.Stop()
	n := 0
	flush := func() {
		traces := tc.Drain()
		if len(traces) == 0 {
			return
		}
		path := filepath.Join(dir, fmt.Sprintf("trace-%03d.json", n))
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fathom: trace dump:", err)
			return
		}
		if err := telemetry.WriteChromeTraces(f, traces); err != nil {
			fmt.Fprintln(os.Stderr, "fathom: trace dump:", err)
		}
		_ = f.Close()
		fmt.Printf("(%d sampled traces written to %s)\n", len(traces), path)
		n++
	}
	for {
		select {
		case <-tick.C:
			flush()
		case <-stop:
			flush()
			return
		}
	}
}

// validateTrainFlags rejects inconsistent train-axis flag combinations
// up front with a clear error instead of a mid-run failure.
func validateTrainFlags(replicas, chunks, fuseWidth int) {
	if replicas < 1 {
		fatal(fmt.Errorf("train: -replicas %d must be >= 1", replicas))
	}
	if chunks < 1 {
		fatal(fmt.Errorf("train: -chunks %d must be >= 1", chunks))
	}
	if chunks%replicas != 0 {
		fatal(fmt.Errorf("train: -replicas %d must divide -chunks %d (each replica owns an equal share of the chunk grid)", replicas, chunks))
	}
	if fuseWidth < 0 {
		fatal(fmt.Errorf("train: -fuse %d must be >= 0 (0 disables fusion)", fuseWidth))
	}
}

// writeBench persists a load-test report as the BENCH_serve.json
// trajectory file (inside -out when set).
func writeBench(rep *loadgen.Report, benchPath, outDir string) {
	payload, err := experiments.WriteBenchJSON(rep)
	if err != nil {
		fatal(err)
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fatal(err)
		}
		benchPath = filepath.Join(outDir, filepath.Base(benchPath))
	}
	if err := os.WriteFile(benchPath, payload, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("(bench written to %s)\n\n", benchPath)
}

func must(r experiments.Result, err error) func(func(experiments.Result)) {
	if err != nil {
		fatal(err)
	}
	return func(emit func(experiments.Result)) { emit(r) }
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fathom:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fathom <command> [flags]

commands:
  list       registered workloads
  run        profile one workload        (-model, -mode, -device, -intraop, -interop, -heads)
  profile    parallelism report          (-interop N -intraop N; critical path, achieved vs
             achievable inter-op speedup, real vs modeled intra-op speedup and the
             model's error; CSV with -out)
  train      training scaling            (-replicas N -chunks K -fuse K -model a,b -steps N -intraop N;
             data-parallel achieved vs achievable scaling plus horizontally fused arrays,
             bit-identical across replica counts and fused trainees;
             -trace dumps per-step sample/grad/reduce/apply phase telemetry)
  serve      HTTP/JSON inference serving (-model a,b -addr -sessions -maxbatch -maxdelay -interop -intraop
             -queue N -deadline D: bounded admission lanes + per-model deadline budget;
             -heads N overrides the attention workload's head count;
             -tracesample N traces every Nth request, -tracedir DIR dumps Chrome traces,
             -pprof mounts /debug/pprof; /metrics always exposes Prometheus text)
  loadtest   open-loop overload test     (-model m -qps X -duration D -arrival poisson|uniform -batchfrac F
             -deadline D -queue N; 0.5x/1x/2x capacity sweep -> goodput, shed rate, p50/p99/p999,
             persisted as BENCH_serve.json via -bench FILE)
  table1     architecture-survey table
  table2     workload inventory
  fig1       op-time stationarity
  fig2       cumulative heavy-op curves
  fig3       class heat map
  fig4       similarity dendrogram
  fig5       train/inference × CPU/GPU
  fig6       op-type scaling vs workers  (-model deepq,seq2seq,memnet; one recorded run
             priced at 1/2/4/8 workers)
  overhead   inter-op overhead (§V-A)
  ablation   optimizer-pass and kernel-fusion ablations
  all        everything

flags: -preset ref|small|tiny  -steps N  -warmup N  -seed N  -out DIR
serve: exposes POST /v1/models/<name>:infer, GET /v1/models, /healthz, /stats;
       requests carry one example per call and are dynamically micro-batched`)
}
