package runtime_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	_ "repro/internal/models/all"
	"repro/internal/models/nn"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// TestWorkloadPlansSound: every plan the ten workloads compile — the
// fetch sets one training and one inference step actually run, at
// inter-op 1 and 4 — satisfies checkPlan.
func TestWorkloadPlansSound(t *testing.T) {
	preset := core.PresetSmall
	if testing.Short() {
		preset = core.PresetTiny
	}
	for _, name := range core.Names() {
		for _, mode := range []core.Mode{core.ModeTraining, core.ModeInference} {
			for _, interOp := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/interop%d", name, mode, interOp), func(t *testing.T) {
					m, err := core.New(name)
					if err != nil {
						t.Fatal(err)
					}
					if err := m.Setup(core.Config{Preset: preset, Seed: 3}); err != nil {
						t.Fatal(err)
					}
					s := runtime.NewSession(m.Graph(), runtime.WithInterOpWorkers(interOp))
					defer s.Close()
					if err := core.Step(m, s, mode); err != nil {
						t.Fatal(err)
					}
					if err := runtime.CheckCachedPlans(s); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestPlanCompileDeterministic: compiling one fetch set is a pure
// function of the graph and the session's widths. alexnet's training
// plan has enough same-sized slots dying at one step that any
// unordered walk over them shows up as a different slab layout and so
// a different anti-dependency edge count.
func TestPlanCompileDeterministic(t *testing.T) {
	m, err := core.New("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Setup(core.Config{Preset: core.PresetTiny, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	tp := m.(interface{ TrainPlan() *nn.TrainPlan }).TrainPlan()
	fetches := []*graph.Node{tp.Loss(), tp.TrainOp()}
	for _, interOp := range []int{1, 4} {
		var edges, slots, buffers int
		for i := 0; i < 8; i++ {
			s := runtime.NewSession(m.Graph(), runtime.WithInterOpWorkers(interOp))
			p := s.Plan(fetches)
			s.Close()
			if i == 0 {
				edges, slots, buffers = p.Edges(), p.Slots(), p.Buffers()
				continue
			}
			if p.Edges() != edges || p.Slots() != slots || p.Buffers() != buffers {
				t.Fatalf("inter-op %d, compile %d: edges/slots/buffers %d/%d/%d, first compile had %d/%d/%d",
					interOp, i, p.Edges(), p.Slots(), p.Buffers(), edges, slots, buffers)
			}
		}
	}
}

// TestPlanCacheKeyedByGraph: two builds of one workload number their
// nodes alike, so a session given both must still compile one plan
// per graph — each build's fetches get that build's plan and the
// outputs a session of its own would give.
func TestPlanCacheKeyedByGraph(t *testing.T) {
	var builds []core.Model
	for _, batch := range []int{2, 4} {
		m, err := core.New("memnet")
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Setup(core.Config{Preset: core.PresetTiny, Seed: 3, Batch: batch}); err != nil {
			t.Fatal(err)
		}
		builds = append(builds, m)
	}
	shared := runtime.NewSession(builds[0].Graph())
	defer shared.Close()
	var plans []*runtime.Plan
	for _, m := range builds {
		sig := m.Signature(core.ModeInference)
		feeds := m.(core.Sampler).Sample()
		got, err := core.RunInference(m, shared, feeds)
		if err != nil {
			t.Fatalf("batch %d on the shared session: %v", sig.BatchCapacity(), err)
		}
		own := runtime.NewSession(m.Graph())
		want, err := core.RunInference(m, own, feeds)
		own.Close()
		if err != nil {
			t.Fatal(err)
		}
		for name, w := range want {
			g := got[name]
			if !tensor.SameShape(g.Shape(), w.Shape()) || !slices.Equal(g.Data(), w.Data()) {
				t.Fatalf("batch %d output %q: shared session %v differs from its own session's %v",
					sig.BatchCapacity(), name, g.Shape(), w.Shape())
			}
		}
		var fetches []*graph.Node
		for _, out := range sig.Outputs {
			fetches = append(fetches, out.Node)
		}
		plans = append(plans, shared.Plan(fetches))
	}
	if plans[0] == plans[1] {
		t.Fatal("two graphs' fetch sets share one cached plan")
	}
}
