package fuse

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"

	_ "repro/internal/models/all"
)

// slotNames lists the "/slot/" variables of g, in creation order.
func slotNames(g *graph.Graph) []string {
	var out []string
	for _, v := range g.Variables() {
		if strings.Contains(v.Name(), "/slot/") {
			out = append(out, v.Name())
		}
	}
	return out
}

// TestOptimizerSlotNamesStable pins the variable names checkpoints are
// keyed by, one workload per optimizer in use: a standalone training
// graph carries "<param>/slot/<slot>" for TrainOp's accumulators and
// the same names with "#2" for the fed-gradient path's, a width-2
// fused graph carries "<param>/slot/<slot>" over the stacks — the
// names every earlier checkpoint was written under.
func TestOptimizerSlotNamesStable(t *testing.T) {
	for _, tc := range []struct {
		model string
		slots []string
		fuses bool
	}{
		{"alexnet", nil, true},                        // SGD
		{"attention", []string{"velocity"}, true},     // Momentum
		{"deepq", []string{"ms"}, false},              // RMSProp; per-step state, cannot fuse
		{"autoenc", []string{"m", "v", "step"}, true}, // Adam
	} {
		m, err := dist.Instantiate(tc.model, core.Config{Preset: core.PresetTiny, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		plan := m.TrainPlan()
		want := func(suffix string) []string {
			var names []string
			for _, p := range plan.Params() {
				for _, s := range tc.slots {
					names = append(names, p.Name()+"/slot/"+s+suffix)
				}
			}
			return names
		}
		if _, _, err := plan.DistApplyScaled(1); err != nil {
			t.Fatal(err)
		}
		if got, want := slotNames(m.Graph()), append(want(""), want("#2")...); !slices.Equal(got, want) {
			t.Errorf("%s standalone slots:\n got %v\nwant %v", tc.model, got, want)
		}
		if !tc.fuses {
			continue
		}
		fp, err := transform(m, 2, []float32{1, 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := slotNames(fp.g), want(""); !slices.Equal(got, want) {
			t.Errorf("%s fused slots:\n got %v\nwant %v", tc.model, got, want)
		}
		for i, p := range plan.Params() {
			if fp.params[i].Name() != p.Name() {
				t.Errorf("%s: fused parameter %d is %q, template %q", tc.model, i, fp.params[i].Name(), p.Name())
			}
		}
	}
}
