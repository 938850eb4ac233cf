// Command bench is the repo benchmark (BENCHMARK.json): six named
// workloads over the serve / run / train surfaces, the end-to-end
// metrics a user of the system would see, and — in a separate traced
// run — a per-layer time stack measured from outside, by timing calls
// into each package's public functions and reading its public counters.
//
//	bash bench/run.sh --workload all --seed 1            # every end-to-end metric
//	bash bench/run.sh --workload all --seed 1 --trace 1  # every per-layer metric
//	bash bench/run.sh compare A.json B.json              # judge two result sets
//	bash bench/run.sh aa                                 # two sets of the same code
//
// See bench/README.md for the recipe of each workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return cmdCompare(args[1:], stdout, stderr)
		case "aa":
			return cmdAA(args[1:], stdout, stderr)
		}
	}
	spec, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload name, or all")
		seed    = fs.Int64("seed", 1, "seed of the generated inputs: data, arrival schedule, lane and example choice")
		seconds = fs.Float64("seconds", float64(spec.RunSeconds), "seconds one run measures")
		trace   = fs.Int("trace", 0, "1 repeats the run with tracing on and prints the per-layer metrics")
		quick   = fs.Bool("quick", false, "1 s window, checks on, no validity rules: a smoke run, not a measurement")

		childMode = fs.String("child", "", "internal: run one workload in this process (measure or setup)")
		spawnedAt = fs.Int64("spawned-at", 0, "internal: parent's clock at spawn, unix ns")
		window    = fs.Duration("window", 0, "internal: measured window of the child")
		side      = fs.Duration("side", 0, "internal: side-pass budget of the traced child")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if *childMode != "" {
		c := config{workload: *name, seed: *seed, window: *window, side: *side, traced: *trace == 1, quick: *quick}
		rep, err := childMain(spec, c, *childMode, time.Unix(0, *spawnedAt))
		if err != nil {
			return fail(fmt.Errorf("%s: %w", *name, err))
		}
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			return fail(err)
		}
		return 0
	}
	if err := requireHost(); err != nil {
		return fail(err)
	}
	if *quick {
		*seconds = 1
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	set := resultSet{Header: newHeader(*seed, *seconds, *trace == 1, *quick)}
	for _, n := range names {
		if _, err := newWorkload(n); err != nil {
			return fail(err)
		}
		r, err := drive(spec, n, *seed, *seconds, *trace == 1, *quick)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", n, err))
		}
		set.Runs = append(set.Runs, r)
		printRun(stdout, spec, r)
	}
	path, err := set.save(spec, "")
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "result set: %s\n", path)
	if len(set.Runs) == 1 {
		// The driver's contract: the last line is the one run's result.
		if err := emitResultLine(stdout, spec, set.Runs[0]); err != nil {
			return fail(err)
		}
		return 0
	}
	// A whole set ends with its summary. This benchmark defines the
	// baseline; it claims no gain.
	summary, err := json.Marshal(map[string]any{"workloads": len(set.Runs), "correct": set.correct(), "claim": nil})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", summary)
	if !set.correct() {
		return 1
	}
	return 0
}

// resultLine is the one JSON object the driver reads from the last
// line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func emitResultLine(w io.Writer, spec *benchSpec, r runResult) error {
	list := spec.EndToEnd
	if r.Traced {
		list = spec.PerLayer
	}
	line := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, m := range list {
		line.Metrics[m.Name] = metricValue{Value: r.Metrics[m.Name], Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printRun prints every metric of one run by name with its unit.
func printRun(w io.Writer, spec *benchSpec, r runResult) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d): %d ops attempted, %d failed, %d latency samples, correct=%v\n",
		r.Workload, mode, r.Seed, r.Attempted, r.Failed, r.Samples, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		note := ""
		if r.Traced && !r.measured(n) {
			note = "  (layer not on this workload's path)"
		}
		fmt.Fprintf(w, "  %-44s %14.6g %s%s\n", n, r.Metrics[n], spec.unit(n), note)
	}
}
