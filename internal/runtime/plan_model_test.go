package runtime_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/models/nn"
	"repro/internal/runtime"
)

// TestPlanCompileDeterministic: compiling one fetch set is a pure
// function of the graph and the session's widths. alexnet's training
// plan has enough same-sized buffers dying at one step that any
// unordered walk over them shows up as a different reuse assignment
// and so a different anti-dependency edge count.
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
