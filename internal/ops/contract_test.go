package ops_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	_ "repro/internal/models/all"
	"repro/internal/ops"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// kernel is the method of a kernel op (see graph.Op).
type kernel interface {
	ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error
}

func sameBits(a, b *tensor.Tensor) bool {
	if !tensor.SameShape(a.Shape(), b.Shape()) {
		return false
	}
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// holdToContract evaluates every node of g in insertion (topological)
// order, one op at a time on graph.Forward, and holds each op to the
// contract of its kind (graph.Op): a kernel writes the bits Forward
// returns into a destination full of NaN and again into one holding its
// previous result, so it neither reads out nor leaves any of it stale;
// a view's result is its first input's backing array. The RNG is
// reseeded before every call, so a sampling op draws the same values
// each time. Placeholders without a feed are zeros. It returns the
// op-type names it saw.
func holdToContract(t *testing.T, g *graph.Graph, feeds map[*graph.Node]*tensor.Tensor, training bool) map[string]bool {
	t.Helper()
	ctx := &graph.ExecContext{Pool: tensor.NewPool(1), Training: training}
	seen := map[string]bool{}
	vals := make([]*tensor.Tensor, g.NumNodes())
	for _, n := range g.Nodes() {
		switch n.Kind() {
		case graph.KindConst, graph.KindVariable:
			vals[n.ID()] = n.Value()
		case graph.KindPlaceholder:
			if vals[n.ID()] = feeds[n]; vals[n.ID()] == nil {
				vals[n.ID()] = tensor.New(n.Shape()...)
			}
		case graph.KindOp:
			in := make([]*tensor.Tensor, len(n.Inputs()))
			for i, x := range n.Inputs() {
				in[i] = vals[x.ID()]
			}
			op := n.Op()
			seen[op.Name()] = true
			reseed := func() { ctx.RNG = rand.New(rand.NewSource(int64(n.ID()))) }
			reseed()
			want, err := graph.Forward(ctx, op, in)
			if err != nil {
				t.Fatalf("%v: %v", n, err)
			}
			if !tensor.SameShape(want.Shape(), n.Shape()) {
				t.Fatalf("%v: result shape %v", n, want.Shape())
			}
			vals[n.ID()] = want
			if _, isView := op.(graph.ViewOp); isView {
				if want.Size() != in[0].Size() || (want.Size() > 0 && &want.Data()[0] != &in[0].Data()[0]) {
					t.Errorf("%v: a view must share its first input's backing array", n)
				}
				continue
			}
			out := tensor.Full(float32(math.NaN()), n.Shape()...)
			for _, dst := range []string{"full of NaN", "holding the previous result"} {
				reseed()
				if err := op.(kernel).ForwardInto(ctx, in, out); err != nil {
					t.Fatalf("%v: %v", n, err)
				}
				if !sameBits(out, want) {
					t.Errorf("%v: ForwardInto a destination %s differs from graph.Forward", n, dst)
				}
			}
		}
	}
	return seen
}

// workloadGraph builds a workload at the tiny preset and samples one
// batch for its training and its inference placeholders.
func workloadGraph(t *testing.T, name string) (*graph.Graph, map[*graph.Node]*tensor.Tensor) {
	t.Helper()
	m, err := core.New(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Setup(core.Config{Preset: core.PresetTiny, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	feeds := map[*graph.Node]*tensor.Tensor{}
	bind := func(mode core.Mode, batch map[string]*tensor.Tensor) {
		for _, in := range m.Signature(mode).Inputs {
			if v, ok := batch[in.Name]; ok {
				feeds[in.Node] = v
			}
		}
	}
	s := runtime.NewSession(m.Graph())
	defer s.Close()
	batch, err := m.(core.TrainSampler).TrainSample(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	bind(core.ModeTraining, batch)
	if smp, ok := m.(core.Sampler); ok {
		bind(core.ModeInference, smp.Sample())
	}
	return m.Graph(), feeds
}

// lrnGraph is LRN and its gradient at one exponent: 0.75 takes the
// kernel's square-root path, 0.6 its general one.
func lrnGraph(t *testing.T, beta float32) (*graph.Graph, map[*graph.Node]*tensor.Tensor) {
	t.Helper()
	g := graph.New()
	x := g.Placeholder("x", 2, 5, 5, 24)
	if _, err := graph.Gradients(ops.Sum(ops.LRN(x, 5, 2, 1e-2, beta)), []*graph.Node{x}); err != nil {
		t.Fatal(err)
	}
	return g, map[*graph.Node]*tensor.Tensor{x: tensor.RandNormal(rand.New(rand.NewSource(9)), 0, 2, 2, 5, 5, 24)}
}

// unusedOpsGraph holds the ops no workload builds, with their gradients.
func unusedOpsGraph(t *testing.T) (*graph.Graph, map[*graph.Node]*tensor.Tensor) {
	t.Helper()
	g := graph.New()
	x := g.Placeholder("x", 2, 6, 6, 3)
	clamped := ops.Maximum(ops.Minimum(x, ops.ScalarConst(g, 0.5)), ops.ScalarConst(g, -0.5))
	loss := ops.Add(ops.Sum(ops.AvgPool(x, 2, 2, 0)), ops.Add(
		ops.Sum(ops.Huber(clamped, 0.3)),
		ops.Sum(ops.PadN(x, []int{0, 1, 0, 2}, []int{1, 0, 2, 0}))))
	if _, err := graph.Gradients(loss, []*graph.Node{x}); err != nil {
		t.Fatal(err)
	}
	ops.OneHot(g.Const("idx", tensor.FromSlice([]float32{2, 0, 3}, 3)), 4)
	return g, map[*graph.Node]*tensor.Tensor{x: tensor.RandNormal(rand.New(rand.NewSource(4)), 0, 1, 2, 6, 6, 3)}
}

// TestEveryOpKeepsItsKindsContract: every op node of the ten workloads'
// graphs, in training and in inference mode, plus the ops no workload
// uses.
func TestEveryOpKeepsItsKindsContract(t *testing.T) {
	type row struct {
		name  string
		build func(*testing.T) (*graph.Graph, map[*graph.Node]*tensor.Tensor)
		want  []string // op types the row exists for
	}
	rows := []row{
		{"unused ops", unusedOpsGraph, []string{"OneHot", "Pad", "Slice", "Maximum", "Minimum", "Huber", "AvgPool", "AvgPoolGrad"}},
		{"lrn beta 0.75", func(t *testing.T) (*graph.Graph, map[*graph.Node]*tensor.Tensor) { return lrnGraph(t, 0.75) }, []string{"LRN", "LRNGrad"}},
		{"lrn beta 0.6", func(t *testing.T) (*graph.Graph, map[*graph.Node]*tensor.Tensor) { return lrnGraph(t, 0.6) }, []string{"LRN", "LRNGrad"}},
	}
	for _, name := range core.Names() {
		name := name
		rows = append(rows, row{name, func(t *testing.T) (*graph.Graph, map[*graph.Node]*tensor.Tensor) { return workloadGraph(t, name) }, nil})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			g, feeds := r.build(t)
			seen := holdToContract(t, g, feeds, true)
			holdToContract(t, g, feeds, false)
			for _, name := range r.want {
				if !seen[name] {
					t.Errorf("the row built no %s", name)
				}
			}
		})
	}
}
