package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// Verdicts of one (end-to-end metric, workload) pair.
const (
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictImproved   = "improved"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound: neither unchanged nor worse can be claimed
)

// pairVerdict judges one end-to-end metric on one workload between a
// base result set (A) and a new one (B).
type pairVerdict struct {
	Metric, Workload string
	Unit             string
	Base, New        float64 // medians over each set's runs of the workload
	NBase, NNew      int     // runs behind each median
	Change           float64 // share of the base by which B is worse (negative: better)
	Spread           float64 // the wider of the two sets' run-to-run spreads
	Bound            float64
	Verdict          string
}

// runSpread is the run-to-run spread of one set's values: the
// interquartile distance over the median (what the driver computes)
// from four runs up, the full range over the median for two or three,
// and unknown (0) for a single run.
func runSpread(v []float64) float64 {
	switch {
	case len(v) >= 4:
		return spread(v)
	case len(v) >= 2:
		s := sortedCopy(v)
		return ratio(s[len(s)-1]-s[0], math.Abs(median(v)))
	}
	return 0
}

// judgePair applies the rule of BENCHMARK.json: B may be worse than A
// by at most the metric's bound, as a share of A's median; a pair
// whose own spread exceeds the bound cannot be resolved either way.
func judgePair(m metricSpec, workload string, a, b []float64) pairVerdict {
	p := pairVerdict{
		Metric: m.Name, Workload: workload, Unit: m.Unit,
		Base: median(a), New: median(b), NBase: len(a), NNew: len(b),
		Spread: math.Max(runSpread(a), runSpread(b)), Bound: m.Bound,
	}
	p.Change = ratio(p.New-p.Base, math.Abs(p.Base))
	if m.Better == "higher" {
		p.Change = -p.Change
	}
	switch {
	case p.Spread > p.Bound:
		p.Verdict = verdictUnresolved
	case p.Change > p.Bound:
		p.Verdict = verdictWorse
	case p.Change < -p.Bound:
		p.Verdict = verdictImproved
	default:
		p.Verdict = verdictWithin
	}
	return p
}

// judgeSets judges every end-to-end metric of the spec on every
// workload both sets ran. Per-layer metrics — including any metric
// demoted to a per-layer diagnostic — are listed by the traced run but
// never gated.
func judgeSets(spec *benchSpec, a, b *resultSet) []pairVerdict {
	values := func(s *resultSet, workload, metric string) []float64 {
		var v []float64
		for _, r := range s.Runs {
			if r.Workload == workload && !r.Traced {
				if x, ok := r.Metrics[metric]; ok {
					v = append(v, x)
				}
			}
		}
		return v
	}
	var out []pairVerdict
	for _, m := range spec.EndToEnd {
		for _, w := range workloadNames {
			av, bv := values(a, w, m.Name), values(b, w, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			out = append(out, judgePair(m, w, av, bv))
		}
	}
	return out
}

// printVerdicts writes one row per (metric, workload), every ratio with
// its base, and returns how many pairs are worse.
func printVerdicts(w io.Writer, vs []pairVerdict) (worse int) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tbase (A)\tnew (B)\tB/A\tworse by\tspread\tbound\tverdict")
	for _, p := range vs {
		fmt.Fprintf(tw, "%s\t%s\t%.4g %s (n=%d)\t%.4g %s (n=%d)\t%.3f\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
			p.Metric, p.Workload, p.Base, p.Unit, p.NBase, p.New, p.Unit, p.NNew,
			ratio(p.New, p.Base), 100*p.Change, 100*p.Spread, 100*p.Bound, p.Verdict)
		if p.Verdict == verdictWorse {
			worse++
		}
	}
	_ = tw.Flush() // w is stdout or a test buffer
	return worse
}

// cmdCompare implements `bench compare A.json B.json`.
func cmdCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare A.json B.json")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var sets [2]*resultSet
	for i, p := range args {
		if sets[i], err = loadResultSet(p); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return reportVerdicts(stdout, judgeSets(spec, sets[0], sets[1]))
}

func reportVerdicts(stdout io.Writer, vs []pairVerdict) int {
	if worse := printVerdicts(stdout, vs); worse > 0 {
		fmt.Fprintf(stdout, "%d of %d pairs worse than their bound\n", worse, len(vs))
		return 1
	}
	fmt.Fprintf(stdout, "no pair of %d is worse than its bound\n", len(vs))
	return 0
}

// cmdAA implements `bench aa`: two full untraced sets of the same
// code, back to back, judged against each other. It is the evidence
// behind each bound: on an unmodified tree no pair may be worse.
func cmdAA(args []string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	spec, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	fs := flag.NewFlagSet("bench aa", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runs := fs.Int("runs", 3, "runs per workload and set, each with its own seed")
	seed := fs.Int64("seed", 1, "first seed; run i of a workload uses seed+i in both sets")
	seconds := fs.Float64("seconds", float64(spec.RunSeconds), "seconds one run measures")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := requireHost(); err != nil {
		return fail(err)
	}
	var sets [2]resultSet
	for i := range sets {
		sets[i].Header = newHeader(*seed, *seconds, false, false)
		for _, w := range workloadNames {
			for k := 0; k < *runs; k++ {
				r, err := drive(spec, w, *seed+int64(k), *seconds, false, false)
				if err != nil {
					return fail(fmt.Errorf("set %c: %s: %w", 'A'+i, w, err))
				}
				sets[i].Runs = append(sets[i].Runs, r)
				fmt.Fprintf(stderr, "set %c: %s seed %d done\n", 'A'+i, w, r.Seed)
			}
		}
		if _, err := sets[i].save(spec, fmt.Sprintf("aa-%c.json", 'A'+i)); err != nil {
			return fail(err)
		}
	}
	return reportVerdicts(stdout, judgeSets(spec, &sets[0], &sets[1]))
}
