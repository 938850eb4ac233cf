// Package experiments regenerates every table and figure of the
// paper's evaluation (Section V): where time is spent by operation
// type and class, how similar the workload profiles are, how training
// compares to inference on the CPU and the modeled GPU, and how
// intra-operation parallelism shifts the bottlenecks. Each experiment
// returns a Result carrying both a human-readable rendering and a CSV
// payload for downstream plotting.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/profiling"
	"repro/internal/survey"
)

// Options configures experiment runs.
type Options struct {
	Preset core.Preset
	Steps  int
	Warmup int
	Seed   int64
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Steps == 0 {
		o.Steps = 4
	}
	if o.Warmup == 0 {
		o.Warmup = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Result is one regenerated table or figure.
type Result struct {
	ID    string // "table1", "fig3", ...
	Title string
	Text  string // human-readable rendering
	CSV   string // machine-readable series
}

// Workloads returns the suite's model names in the paper's Figure-3
// display order.
func Workloads() []string {
	return []string{"seq2seq", "memnet", "speech", "autoenc", "residual", "vgg", "alexnet", "deepq"}
}

// ProfileSuite profiles every workload in the given mode and returns
// results keyed by model name. Shared by Fig. 2, 3 and 4 so the CLI
// "all" command profiles the suite once.
func ProfileSuite(o Options, mode core.Mode) (map[string]*core.RunResult, error) {
	o = o.withDefaults()
	out := map[string]*core.RunResult{}
	for _, name := range Workloads() {
		res, err := core.SetupAndRun(name, core.Config{Preset: o.Preset, Seed: o.Seed},
			core.RunOptions{Mode: mode, Steps: o.Steps, Warmup: o.Warmup, Seed: o.Seed})
		if err != nil {
			return nil, fmt.Errorf("experiments: profiling %s: %w", name, err)
		}
		out[name] = res
	}
	return out, nil
}

// ---- Table I ----

// Table1 renders the architecture-literature survey against Fathom.
func Table1() Result {
	metas := suiteMetas()
	text := survey.Render(metas)
	var csv strings.Builder
	csv.WriteString("feature")
	papers := append(survey.Papers(), survey.FathomColumn(metas))
	for _, p := range papers {
		fmt.Fprintf(&csv, ",%s", p.Cite)
	}
	csv.WriteString("\n")
	for f := survey.FullyConnected; f <= survey.FunctionApproximation; f++ {
		csv.WriteString(strings.ReplaceAll(f.String(), ",", ";"))
		for _, p := range papers {
			if p.Features[f] {
				csv.WriteString(",1")
			} else {
				csv.WriteString(",0")
			}
		}
		csv.WriteString("\n")
	}
	return Result{ID: "table1", Title: "Table I: Recent architecture research in deep learning", Text: text, CSV: csv.String()}
}

func suiteMetas() []core.Meta {
	var metas []core.Meta
	for _, name := range core.Names() {
		m, err := core.New(name)
		if err != nil {
			continue
		}
		metas = append(metas, m.Meta())
	}
	return metas
}

// ---- Table II ----

// Table2 renders the workload inventory from live model metadata.
func Table2() Result {
	var text, csv strings.Builder
	fmt.Fprintf(&text, "%-10s %-5s %-22s %-7s %-14s %-10s  %s\n",
		"Model", "Year", "Neuronal Style", "Layers", "Learning Task", "Dataset", "Purpose and Legacy")
	csv.WriteString("model,year,style,layers,task,dataset,purpose\n")
	for _, name := range Workloads() {
		m, err := core.New(name)
		if err != nil {
			continue
		}
		meta := m.Meta()
		fmt.Fprintf(&text, "%-10s %-5d %-22s %-7d %-14s %-10s  %s\n",
			meta.Name, meta.Year, meta.Style, meta.Layers, meta.Task, meta.Dataset, meta.Purpose)
		fmt.Fprintf(&csv, "%s,%d,%s,%d,%s,%s,%q\n",
			meta.Name, meta.Year, meta.Style, meta.Layers, meta.Task, meta.Dataset, meta.Purpose)
	}
	return Result{ID: "table2", Title: "Table II: The Fathom workloads", Text: text.String(), CSV: csv.String()}
}

// ---- Figure 1: stationarity ----

// Fig1 samples per-step operation times across a training run and
// reports the distribution: stationary (low drift), low variance.
func Fig1(o Options) (Result, error) {
	o = o.withDefaults()
	if o.Steps < 16 {
		o.Steps = 16
	}
	res, err := core.SetupAndRun("alexnet", core.Config{Preset: o.Preset, Seed: o.Seed},
		core.RunOptions{Mode: core.ModeTraining, Steps: o.Steps, Warmup: o.Warmup, Seed: o.Seed})
	if err != nil {
		return Result{}, err
	}
	var text, csv strings.Builder
	totals := profiling.StepTotals(res.Events)
	st := profiling.Stationary(totals)
	fmt.Fprintf(&text, "alexnet training, %d steps: per-step op time distribution\n", o.Steps)
	fmt.Fprintf(&text, "  mean %v  std %v  CoV %.4f  drift %.4f  min %v  max %v\n",
		st.Mean, st.Std, st.CoV, st.Drift, st.Min, st.Max)
	edges, counts := profiling.Histogram(totals, 8)
	maxC := 1
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	for i, c := range counts {
		bar := strings.Repeat("#", c*40/maxC)
		fmt.Fprintf(&text, "  %10v..%-10v |%s %d\n", edges[i].Round(time.Microsecond), edges[i+1].Round(time.Microsecond), bar, c)
	}
	// Per-op stationarity of the heaviest types.
	text.WriteString("\n  per-op-type stationarity (top types):\n")
	csv.WriteString("op,samples,mean_ns,std_ns,cov,drift\n")
	for i, s := range res.Profile.Shares() {
		if i >= 6 {
			break
		}
		series := profiling.PerStepTimes(res.Events, s.Op)
		ops := profiling.Stationary(series)
		fmt.Fprintf(&text, "  %-20s mean %-12v CoV %.4f drift %+.4f\n", s.Op, ops.Mean, ops.CoV, ops.Drift)
		fmt.Fprintf(&csv, "%s,%d,%d,%d,%.5f,%.5f\n", s.Op, ops.Samples, ops.Mean.Nanoseconds(), ops.Std.Nanoseconds(), ops.CoV, ops.Drift)
	}
	return Result{ID: "fig1", Title: "Figure 1: operation execution times are stationary with low variance", Text: text.String(), CSV: csv.String()}, nil
}

// ---- Figure 2: cumulative op-type curves ----

// Fig2From renders the cumulative heavy-operation curves from a
// profiled suite.
func Fig2From(results map[string]*core.RunResult) Result {
	var text, csv strings.Builder
	csv.WriteString("model,rank,op,cumulative\n")
	text.WriteString("Cumulative fraction of execution time vs number of op types:\n\n")
	for _, name := range Workloads() {
		res := results[name]
		if res == nil {
			continue
		}
		cum := res.Profile.Cumulative()
		fmt.Fprintf(&text, "%-10s", name)
		for i, pt := range cum {
			if i >= 10 {
				break
			}
			fmt.Fprintf(&text, " %5.2f", pt.Cumulative)
		}
		h := res.Profile.HeavyTypes(0.9)
		fmt.Fprintf(&text, "   (%d types reach 90%%, %d total)\n", h, len(cum))
		for _, pt := range cum {
			fmt.Fprintf(&csv, "%s,%d,%s,%.5f\n", name, pt.Rank, pt.Op, pt.Cumulative)
		}
	}
	return Result{ID: "fig2", Title: "Figure 2: a handful of heavy op types dominate execution time", Text: text.String(), CSV: csv.String()}
}

// Fig2 profiles the suite and renders the curves.
func Fig2(o Options) (Result, error) {
	rs, err := ProfileSuite(o, core.ModeTraining)
	if err != nil {
		return Result{}, err
	}
	return Fig2From(rs), nil
}

// ---- Figure 3: class heat map ----

// Fig3From renders the per-class execution-time breakdown.
func Fig3From(results map[string]*core.RunResult) Result {
	var text, csv strings.Builder
	text.WriteString("Breakdown of execution time by operation class (% of total):\n\n")
	fmt.Fprintf(&text, "%-10s", "")
	for c := 0; c < graph.NumClasses; c++ {
		fmt.Fprintf(&text, "%7s", graph.OpClass(c).Letter())
	}
	text.WriteString("\n")
	csv.WriteString("model")
	for c := 0; c < graph.NumClasses; c++ {
		fmt.Fprintf(&csv, ",%s", strings.ReplaceAll(graph.OpClass(c).String(), " ", "_"))
	}
	csv.WriteString("\n")
	for _, name := range Workloads() {
		res := results[name]
		if res == nil {
			continue
		}
		fr := res.Profile.ClassFractions()
		fmt.Fprintf(&text, "%-10s", name)
		fmt.Fprintf(&csv, "%s", name)
		for c := 0; c < graph.NumClasses; c++ {
			fmt.Fprintf(&text, "%7.1f", 100*fr[c])
			fmt.Fprintf(&csv, ",%.4f", fr[c])
		}
		text.WriteString("\n")
		csv.WriteString("\n")
	}
	text.WriteString("\nClasses: A=Matrix Operations B=Convolution C=Elementwise Arithmetic\n" +
		"         D=Reduction and Expansion E=Random Sampling F=Optimization G=Data Movement\n")
	return Result{ID: "fig3", Title: "Figure 3: execution time by operation type for each Fathom workload", Text: text.String(), CSV: csv.String()}
}

// Fig3 profiles the suite and renders the heat map.
func Fig3(o Options) (Result, error) {
	rs, err := ProfileSuite(o, core.ModeTraining)
	if err != nil {
		return Result{}, err
	}
	return Fig3From(rs), nil
}

// ---- Figure 4: similarity dendrogram ----

// Fig4From clusters the op-type profiles and renders the dendrogram.
func Fig4From(results map[string]*core.RunResult) Result {
	var labels []string
	var profs []*profiling.Profile
	for _, name := range Workloads() {
		if res := results[name]; res != nil {
			labels = append(labels, name)
			profs = append(profs, res.Profile)
		}
	}
	_, vectors := profiling.Vectorize(profs)
	merges := analysis.Agglomerate(vectors)
	var text, csv strings.Builder
	text.WriteString("Hierarchical similarity (cosine distance, centroidal linkage):\n\n")
	text.WriteString(analysis.RenderDendrogram(labels, merges, 72))
	text.WriteString("\nclosest pairs:\n")
	for i, p := range analysis.SortedPairs(labels, vectors) {
		if i >= 6 {
			break
		}
		text.WriteString("  " + p + "\n")
	}
	csv.WriteString("merge,a,b,distance\n")
	for i, m := range merges {
		fmt.Fprintf(&csv, "%d,%d,%d,%.5f\n", i, m.A, m.B, m.Dist)
	}
	return Result{ID: "fig4", Title: "Figure 4: hierarchical similarity in the Fathom workloads", Text: text.String(), CSV: csv.String()}
}

// Fig4 profiles the suite and renders the dendrogram.
func Fig4(o Options) (Result, error) {
	rs, err := ProfileSuite(o, core.ModeTraining)
	if err != nil {
		return Result{}, err
	}
	return Fig4From(rs), nil
}

// ---- Figure 5: training vs inference on CPU and GPU ----

// Fig5 measures per-step time for every workload in all four
// (mode, device) configurations, normalized per model to CPU training
// (the paper's lowest-performance configuration).
func Fig5(o Options) (Result, error) {
	o = o.withDefaults()
	var text, csv strings.Builder
	fmt.Fprintf(&text, "Per-step time normalized to CPU training (lower bar = faster):\n\n")
	fmt.Fprintf(&text, "%-10s %14s %14s %14s %14s %10s %9s\n",
		"model", "train_cpu", "infer_cpu", "train_gpu", "infer_gpu", "infer/train", "gpu_gain")
	csv.WriteString("model,config,seconds_per_step,normalized\n")
	type config struct {
		mode core.Mode
		dev  string
	}
	configs := []config{
		{core.ModeTraining, "cpu"}, {core.ModeInference, "cpu"},
		{core.ModeTraining, "gpu"}, {core.ModeInference, "gpu"},
	}
	for _, name := range Workloads() {
		times := make([]time.Duration, len(configs))
		for i, c := range configs {
			res, err := core.SetupAndRun(name, core.Config{Preset: o.Preset, Seed: o.Seed},
				core.RunOptions{Mode: c.mode, Steps: o.Steps, Warmup: o.Warmup, Device: c.dev, Seed: o.Seed})
			if err != nil {
				return Result{}, fmt.Errorf("fig5 %s %s/%s: %w", name, c.mode, c.dev, err)
			}
			times[i] = res.SimTime / time.Duration(o.Steps)
		}
		base := float64(times[0])
		fmt.Fprintf(&text, "%-10s", name)
		for i, c := range configs {
			norm := float64(times[i]) / base
			fmt.Fprintf(&text, " %8.5fx(%3s)", norm, c.dev)
			fmt.Fprintf(&csv, "%s,%s_%s,%.6f,%.6f\n", name, c.mode, c.dev,
				times[i].Seconds(), norm)
		}
		fmt.Fprintf(&text, " %10.3f %9.1f\n",
			float64(times[1])/float64(times[0]), // inference/training on CPU
			float64(times[0])/float64(times[2])) // CPU/GPU speedup for training
	}
	text.WriteString("\n(columns: normalized per-step time for train_cpu, infer_cpu, train_gpu, infer_gpu;\n" +
		" infer/train = CPU inference fraction; gpu_gain = training speedup of modeled GPU)\n")
	return Result{ID: "fig5", Title: "Figure 5: training and inference, CPU and (modeled) GPU", Text: text.String(), CSV: csv.String()}, nil
}

// ---- Figure 6: parallel scaling of op types ----

// Fig6Models are the workloads the paper examines in Figure 6.
func Fig6Models() []string { return []string{"deepq", "seq2seq", "memnet"} }

// Fig6 sweeps intra-op workers for one model and reports absolute
// time per op type — the application-level Amdahl's-law picture. One
// chunk-recorded profile is priced at every width (profiling.AtWidth).
func Fig6(o Options, model string) (Result, error) {
	o = o.withDefaults()
	workers := []int{1, 2, 4, 8}
	res, err := core.SetupAndRun(model, core.Config{Preset: o.Preset, Seed: o.Seed},
		core.RunOptions{Mode: core.ModeTraining, Steps: o.Steps, Warmup: o.Warmup, Seed: o.Seed})
	if err != nil {
		return Result{}, fmt.Errorf("fig6 %s: %w", model, err)
	}
	byWorkers := make([]*profiling.Profile, len(workers))
	for i, w := range workers {
		byWorkers[i] = profiling.Collect(model, res.Mode.String(), o.Steps, profiling.AtWidth(res.Events, w))
	}
	// Rank op types by their single-worker time.
	shares := byWorkers[0].Shares()
	topN := 10
	if len(shares) < topN {
		topN = len(shares)
	}
	var text, csv strings.Builder
	fmt.Fprintf(&text, "%s training: absolute time per op type vs modeled workers\n\n", model)
	fmt.Fprintf(&text, "%-20s %-6s", "op type", "class")
	for _, w := range workers {
		fmt.Fprintf(&text, "%12s", fmt.Sprintf("%d thr", w))
	}
	fmt.Fprintf(&text, "%10s\n", "speedup")
	csv.WriteString("op,class")
	for _, w := range workers {
		fmt.Fprintf(&csv, ",t%d_ns", w)
	}
	csv.WriteString("\n")
	for i := 0; i < topN; i++ {
		op := shares[i].Op
		fmt.Fprintf(&text, "%-20s %-6s", op, shares[i].Class.Letter())
		fmt.Fprintf(&csv, "%s,%s", op, shares[i].Class.Letter())
		var t1, tN time.Duration
		for j := range workers {
			d := byWorkers[j].ByType[op] / time.Duration(o.Steps)
			if j == 0 {
				t1 = d
			}
			tN = d
			fmt.Fprintf(&text, "%12v", d.Round(time.Microsecond))
			fmt.Fprintf(&csv, ",%d", d.Nanoseconds())
		}
		sp := 0.0
		if tN > 0 {
			sp = float64(t1) / float64(tN)
		}
		fmt.Fprintf(&text, "%9.2fx\n", sp)
		csv.WriteString("\n")
	}
	// Overall step time and the profile flattening effect.
	text.WriteString("\ntotal op time per step and share of the largest op type:\n")
	for j, w := range workers {
		p := byWorkers[j]
		top := p.Shares()[0]
		fmt.Fprintf(&text, "  %d workers: %12v   top=%s (%.1f%%)\n",
			w, (p.Total / time.Duration(o.Steps)).Round(time.Microsecond), top.Op, 100*top.Fraction)
	}
	return Result{
		ID:    "fig6_" + model,
		Title: fmt.Sprintf("Figure 6: operation type scaling in %s", model),
		Text:  text.String(), CSV: csv.String(),
	}, nil
}

// ---- §V-A: inter-operation overhead ----

// Overhead measures the share of wall time spent outside operations
// (the paper reports 1–2% for TensorFlow).
func Overhead(o Options) (Result, error) {
	o = o.withDefaults()
	var text, csv strings.Builder
	text.WriteString("Inter-operation overhead: share of step wall time outside op kernels\n\n")
	csv.WriteString("model,wall_ns,op_ns,overhead_fraction\n")
	for _, name := range Workloads() {
		res, err := core.SetupAndRun(name, core.Config{Preset: o.Preset, Seed: o.Seed},
			core.RunOptions{Mode: core.ModeTraining, Steps: o.Steps, Warmup: o.Warmup, Seed: o.Seed})
		if err != nil {
			return Result{}, err
		}
		over := 1 - float64(res.SimTime)/float64(res.WallTime)
		if over < 0 {
			over = 0
		}
		fmt.Fprintf(&text, "  %-10s wall %12v  in-op %12v  overhead %5.2f%%\n",
			name, res.WallTime/time.Duration(o.Steps), res.SimTime/time.Duration(o.Steps), 100*over)
		fmt.Fprintf(&csv, "%s,%d,%d,%.5f\n", name, res.WallTime.Nanoseconds(), res.SimTime.Nanoseconds(), over)
	}
	return Result{ID: "overhead", Title: "Inter-operation overhead (§V-A)", Text: text.String(), CSV: csv.String()}, nil
}

// ---- parallelism profile (the `fathom profile` command) ----

// ProfileParallel characterizes both parallelism axes per workload and
// emits the same Result shape as the fig commands, so `fathom profile`
// writes CSV with -out and joins the `all` artifact sweep. Per
// workload it runs three instrumented configurations:
//
//   - a serial, chunk-recorded baseline (the wall and simulated
//     denominators, and the modeled intra-op time: its record priced
//     at width intraop by profiling.AtWidth — the paper's Fig. 6 axis);
//   - a traced inter-op run at width interop (critical path, achieved
//     vs achievable speedup, modeled makespan);
//   - a real intra-op run at width intraop (parallel kernel pools on
//     the shared worker pool — measured wall speedup).
//
// The last three columns are profiling.IntraOpStats's modeled and
// measured speedups and the model's error, their ratio; on a loaded or
// single-core host the measured column legitimately hugs 1.0× while
// the modeled column reports what the hardware model predicts.
//
// names selects the workloads to profile; nil or empty profiles the
// whole suite in Workloads() order. device is the execution device
// name ("" or "cpu" for the measured CPU, "gpu" for the roofline
// model).
func ProfileParallel(o Options, mode core.Mode, interop, intraop int, names []string, device string) (Result, error) {
	o = o.withDefaults()
	if interop < 1 {
		interop = 1
	}
	if intraop < 1 {
		intraop = 1
	}
	if len(names) == 0 {
		names = Workloads()
	}
	var text, csv strings.Builder
	fmt.Fprintf(&text, "parallelism profile: %s, %d steps, inter-op %d, intra-op %d\n\n", mode, o.Steps, interop, intraop)
	fmt.Fprintf(&text, "%-10s %6s %12s %12s %12s %9s %10s %9s %9s %9s\n",
		"workload", "ops", "serial/step", "critpath/st", "span/step", "achieved", "achievable", "intra-mod", "intra-real", "model_err")
	csv.WriteString("workload,ops_per_step,serial_ns,critpath_ns,makespan_ns,achieved,achievable,intraop_modeled,intraop_measured,model_err,interop,intraop\n")
	for _, name := range names {
		name = strings.TrimSpace(name)
		run := func(opt core.RunOptions) (*core.RunResult, error) {
			opt.Mode, opt.Steps, opt.Warmup, opt.Seed, opt.Device = mode, o.Steps, o.Warmup, o.Seed, device
			return core.SetupAndRun(name, core.Config{Preset: o.Preset, Seed: o.Seed}, opt)
		}
		base, err := run(core.RunOptions{})
		if err != nil {
			return Result{}, fmt.Errorf("profile %s baseline: %w", name, err)
		}
		inter, err := run(core.RunOptions{InterOp: interop})
		if err != nil {
			return Result{}, fmt.Errorf("profile %s interop=%d: %w", name, interop, err)
		}
		real, err := run(core.RunOptions{IntraOp: intraop})
		if err != nil {
			return Result{}, fmt.Errorf("profile %s intraop=%d: %w", name, intraop, err)
		}
		io := profiling.InterOp(inter.Events)
		modeled := profiling.Collect(name, mode.String(), o.Steps, profiling.AtWidth(base.Events, intraop))
		ia := profiling.IntraOp(intraop, base.Profile.Total, modeled.Total, base.WallTime, real.WallTime)
		div := io.Steps
		if div == 0 {
			div = 1 // empty trace: print a zero row, never divide by it
		}
		fmt.Fprintf(&text, "%-10s %6d %12v %12v %12v %8.2fx %9.2fx %8.2fx %8.2fx %9.2f\n",
			name, io.Ops/div, io.Serial/time.Duration(div), io.CritPath/time.Duration(div), io.Makespan/time.Duration(div),
			io.Achieved, io.Achievable, ia.Modeled, ia.Measured, ia.Error)
		fmt.Fprintf(&csv, "%s,%d,%d,%d,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%d,%d\n",
			name, io.Ops/div, (io.Serial / time.Duration(div)).Nanoseconds(), (io.CritPath / time.Duration(div)).Nanoseconds(),
			(io.Makespan / time.Duration(div)).Nanoseconds(), io.Achieved, io.Achievable, ia.Modeled, ia.Measured, ia.Error, interop, intraop)
	}
	text.WriteString("\nachieved/achievable: inter-op speedup of the traced schedule vs the critical-path bound\n")
	text.WriteString("intra-mod/intra-real: modeled (recorded chunks over simulated lanes) vs measured (shared-pool goroutines) intra-op speedup\n")
	text.WriteString("model_err: intra-mod / intra-real (above 1: the model promises more than the host delivered)\n")
	return Result{
		ID:    "profile",
		Title: "Parallelism profile: inter-op critical paths and intra-op real vs modeled speedup",
		Text:  text.String(), CSV: csv.String(),
	}, nil
}
