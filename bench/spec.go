package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricSpec is one metric of BENCHMARK.json. Bound is the share of
// the base median by which an end-to-end metric may get worse before a
// change counts as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json, the one place metric names, units,
// directions and bounds are written down. The program reads it at run
// time so the file and the output cannot drift apart.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`

	root string // directory BENCHMARK.json was found in
}

// outDir is where result files and Chrome traces go; the root
// .gitignore names it, so running the benchmark never dirties the tree.
func (s *benchSpec) outDir() string { return filepath.Join(s.root, "bench", "out") }

// loadSpec finds BENCHMARK.json in the working directory (the
// checkout root, where the command runs) or its parent (go test and
// go run from inside bench/).
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, root := range []string{".", ".."} {
		p := filepath.Join(root, "BENCHMARK.json")
		raw, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s := benchSpec{root: root}
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..: %w", firstErr)
}

func (s *benchSpec) unit(name string) string {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
