package models_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/models/nn"
	"repro/internal/runtime"

	_ "repro/internal/models/all"
)

// TestEpilogueFusionFires pins epilogue fusion as part of every
// workload's compiled plans: at preset small, seed 7, the plans of the
// loss+TrainOp, loss+gradients and inference-output fetch sets run no
// more op steps than the bars below — each bar is its plan's length,
// with gradient accumulation (AddN) and ReluGrad fused in training and
// each GEMM's and convolution's epilogue fused in both modes — and each
// workload runs a headed step: a fused step traced in its head's class,
// which is not the element-wise one.
func TestEpilogueFusionFires(t *testing.T) {
	bars := map[string][3]int{
		"alexnet": {68, 51, 17}, "attention": {189, 172, 57}, "autoenc": {44, 33, 6},
		"deepq": {34, 25, 5}, "memnet": {150, 142, 50}, "neuraltalk": {94, 81, 28},
		"residual": {947, 800, 218}, "seq2seq": {1787, 1769, 508}, "speech": {957, 940, 294},
		"vgg": {134, 95, 28},
	}
	for _, name := range core.Names() {
		m, err := core.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Setup(core.Config{Preset: core.PresetSmall, Seed: 7}); err != nil {
			t.Fatalf("%s: Setup: %v", name, err)
		}
		tp := m.(interface{ TrainPlan() *nn.TrainPlan }).TrainPlan()
		var outs []*graph.Node
		for _, o := range m.Signature(core.ModeInference).Outputs {
			outs = append(outs, o.Node)
		}
		bar, ok := bars[name]
		if !ok {
			t.Fatalf("%s: no plan-length bar", name)
		}
		for k, fetches := range [][]*graph.Node{
			{tp.Loss(), tp.TrainOp()},
			append([]*graph.Node{tp.Loss()}, tp.Grads()...),
			outs,
		} {
			s := runtime.NewSession(m.Graph())
			if ops := s.Plan(fetches).Ops(); ops > bar[k] {
				t.Errorf("%s: fetch set %d runs %d op steps, more than %d", name, k, ops, bar[k])
			}
			s.Close()
		}
		headed := ""
		for _, mode := range []core.Mode{core.ModeInference, core.ModeTraining} {
			s := runtime.NewSession(m.Graph(), runtime.WithSeed(7), runtime.WithTrace())
			if err := core.Step(m, s, mode); err != nil {
				t.Fatalf("%s %s: %v", name, mode, err)
			}
			for _, e := range s.Trace() {
				if strings.Contains(e.Op, "+") && e.Class != graph.ClassElementwise {
					headed = e.Op
					break
				}
			}
			s.Close()
			if headed != "" {
				break
			}
		}
		t.Logf("%s: headed step %q", name, headed)
		if headed == "" {
			t.Errorf("%s: no fused step has a head", name)
		}
	}
}
