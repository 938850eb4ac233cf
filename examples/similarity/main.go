// Similarity: profile the whole Fathom suite and reproduce the
// paper's headline analyses in one run — the Figure 3 class heat map
// and the Figure 4 similarity dendrogram — at the fast "small" preset.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/experiments"

	_ "repro/internal/models/all"
)

func main() {
	opts := experiments.Options{Preset: core.PresetSmall, Steps: 2, Warmup: 1, Seed: 1}
	fmt.Println("profiling the paper's eight workloads (small preset; the registry holds ten)...")
	suite, err := experiments.ProfileSuite(opts, core.ModeTraining)
	if err != nil {
		panic(err)
	}
	fig3 := experiments.Fig3From(suite)
	fmt.Printf("\n== %s ==\n%s", fig3.Title, fig3.Text)
	fig4 := experiments.Fig4From(suite)
	fmt.Printf("\n== %s ==\n%s", fig4.Title, fig4.Text)
}
