package ops

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// runAll fetches several nodes in one deterministic session.
func runAll(t *testing.T, g *graph.Graph, fetch []*graph.Node, feeds runtime.Feeds) []*tensor.Tensor {
	t.Helper()
	s := runtime.NewSession(g, runtime.WithSeed(3))
	s.SetTraining(true)
	out, err := s.Run(fetch, feeds)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// fusedSteps runs fetch through a fused and an unfused session at
// intra-op widths 1 and 4, requires every run to give the unfused
// width-1 bits, and returns the fused steps of the fused plan as traced:
// "name/class" for each step that joined several ops. Nothing here
// mutates a variable, so all four sessions share g.
func fusedSteps(t *testing.T, g *graph.Graph, fetch []*graph.Node, feeds runtime.Feeds) []string {
	t.Helper()
	var want []*tensor.Tensor
	var steps []string
	for _, unfused := range []bool{true, false} {
		for _, width := range []int{1, 4} {
			opts := []runtime.Option{runtime.WithSeed(3), runtime.WithTrace(), runtime.WithIntraOpWorkers(width)}
			if unfused {
				opts = append(opts, runtime.WithUnfusedPlans())
			}
			s := runtime.NewSession(g, opts...)
			got, err := s.Run(fetch, feeds)
			s.Close()
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			}
			for i := range want {
				if d := tensor.MaxAbsDiff(got[i], want[i]); d != 0 {
					t.Fatalf("fetch %d, unfused %t, intra-op %d: differs from unfused (max |Δ| %g)", i, unfused, width, d)
				}
			}
			if !unfused && width == 1 {
				for _, e := range s.Trace() {
					if strings.Contains(e.Op, "+") {
						steps = append(steps, fmt.Sprintf("%s/%v", e.Op, e.Class))
					}
				}
			}
		}
	}
	return steps
}

// TestFusedMatMulBiasReluBitIdentical: a compiled inference plan runs
// relu(x·W + b) as one step headed by the GEMM — MatMul+Add+Relu, in
// the matrix class — at a size where the GEMM packs and tiles, and the
// program over its output splits into chunks at width 4. The bits are
// the unfused plan's: the epilogue reads what the GEMM wrote.
func TestFusedMatMulBiasReluBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := graph.New()
	x := g.Placeholder("x", 96, 170)
	w := g.Variable("w", tensor.RandNormal(rng, 0, 1, 170, 260))
	b := g.Variable("b", tensor.RandNormal(rng, 0, 1, 260))
	out := Relu(Add(MatMul(x, w), b))
	got := fusedSteps(t, g, []*graph.Node{out}, runtime.Feeds{x: tensor.RandNormal(rng, 0, 1, 96, 170)})
	if want := []string{"MatMul+Add+Relu/" + graph.ClassMatrix.String()}; !slices.Equal(got, want) {
		t.Fatalf("fused steps %q, want %q", got, want)
	}
}

// TestFusedConv2DBiasTanhBitIdentical: the conv variant of the same
// chain — tanh(conv(x, f) + b) — headed by the im2col Conv2D.
func TestFusedConv2DBiasTanhBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graph.New()
	x := g.Placeholder("x", 4, 20, 20, 4)
	f := g.Variable("f", tensor.RandNormal(rng, 0, 1, 3, 3, 4, 8))
	b := g.Variable("b", tensor.RandNormal(rng, 0, 1, 8))
	out := Tanh(Add(Conv2D(x, f, 1, 1, 1, 1), b))
	got := fusedSteps(t, g, []*graph.Node{out}, runtime.Feeds{x: tensor.RandNormal(rng, 0, 1, 4, 20, 20, 4)})
	if want := []string{"Conv2D+Add+Tanh/" + graph.ClassConv.String()}; !slices.Equal(got, want) {
		t.Fatalf("fused steps %q, want %q", got, want)
	}
}

// trainingFusion builds loss = Sum(act(x·W + b)) with its gradients and
// returns the fused steps of the loss+gradients plan.
func trainingFusion(t *testing.T, seed int64, act func(*graph.Node) *graph.Node) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	x := g.Placeholder("x", 64, 70)
	w := g.Variable("w", tensor.RandNormal(rng, 0, 1, 70, 300))
	b := g.Variable("b", tensor.RandNormal(rng, 0, 1, 300))
	loss := Sum(act(Add(MatMul(x, w), b)))
	grads, err := graph.Gradients(loss, []*graph.Node{w, b})
	if err != nil {
		t.Fatal(err)
	}
	return fusedSteps(t, g, append([]*graph.Node{loss}, grads...), runtime.Feeds{x: tensor.RandNormal(rng, 0, 1, 64, 70)})
}

// TestTrainingFusionRespectsGradientTaps: in a loss+gradients plan over
// relu(x·W+b), ReluGrad reads the relu's output, which is the set's
// output, and the GEMM's gradients read x and W, not the product; so no
// tap reads inside the set, and the whole MatMul+Add+Relu chain fuses in
// a training plan as it does for inference.
func TestTrainingFusionRespectsGradientTaps(t *testing.T) {
	got := trainingFusion(t, 25, Relu)
	for _, s := range got {
		if strings.HasPrefix(s, "MatMul+Add+Relu/") {
			return
		}
	}
	t.Errorf("fused steps %q: no MatMul+Add+Relu", got)
}

// TestTrainingFusionTanhChainFusesFully: Tanh's gradient reads the
// activation, which is the set's output, so the whole MatMul+Add+Tanh
// chain fuses in a training plan too.
func TestTrainingFusionTanhChainFusesFully(t *testing.T) {
	got := trainingFusion(t, 27, Tanh)
	for _, s := range got {
		if strings.HasPrefix(s, "MatMul+Add+Tanh/") {
			return
		}
	}
	t.Errorf("fused steps %q: no MatMul+Add+Tanh", got)
}

// TestOptimizePassRunsFusion: the graph optimizer leaves element-wise
// epilogues to the compiled plan — the optimized graph still holds the
// MatMul, the Add and the Relu, its plan runs them as one step, and it
// computes the original bits.
func TestOptimizePassRunsFusion(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := graph.New()
	x := g.Placeholder("x", 3, 5)
	w := g.Variable("w", tensor.RandNormal(rng, 0, 1, 5, 4))
	b := g.Variable("b", tensor.RandNormal(rng, 0, 1, 4))
	out := Relu(Add(MatMul(x, w), b))
	ctx := &graph.ExecContext{Pool: tensor.NewPool(1), RNG: rand.New(rand.NewSource(1))}
	res, err := graph.Optimize(ctx, []*graph.Node{out})
	if err != nil {
		t.Fatal(err)
	}
	opt := res.Fetch(out)
	if opt.OpName() != "Relu" || opt.Inputs()[0].OpName() != "Add" {
		t.Fatalf("Optimize rewrote the epilogue: %s over %s", opt.OpName(), opt.Inputs()[0].OpName())
	}
	xv := tensor.RandNormal(rng, 0, 1, 3, 5)
	want := runAll(t, g, []*graph.Node{out}, runtime.Feeds{x: xv})[0]
	// The optimized graph has its own placeholder.
	var nx *graph.Node
	for _, n := range res.Graph.Nodes() {
		if n.Kind() == graph.KindPlaceholder {
			nx = n
		}
	}
	steps := fusedSteps(t, res.Graph, []*graph.Node{opt}, runtime.Feeds{nx: xv})
	if len(steps) != 1 || !strings.HasPrefix(steps[0], "MatMul+Add+Relu/") {
		t.Fatalf("optimized graph's plan fused %q, want one MatMul+Add+Relu", steps)
	}
	got := runAll(t, res.Graph, []*graph.Node{opt}, runtime.Feeds{nx: xv})[0]
	if d := tensor.MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("optimized output differs (max |Δ| %g)", d)
	}
}
