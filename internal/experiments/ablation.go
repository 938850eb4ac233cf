package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/models/nn"
	"repro/internal/ops"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// Ablation quantifies the design choices DESIGN.md calls out:
//
//  1. the compiler-esque graph optimizer (identity elision, constant
//     folding, CSE) on a redundancy-heavy inference graph;
//  2. fused Softmax vs the primitive Max/Sub/Exp/Sum/Div composite the
//     recurrent workloads use (kernel fusion);
//  3. fused BatchMatMul vs the Mul+Tile+Sum attention decomposition
//     the paper's seq2seq/memnet profiles exhibit.
//
// Each comparison reports per-step times on the same inputs, on
// unfused plans: the graph-level choices are what is compared. One
// extra row runs the primitive softmax with plan fusion on, which joins
// its Sub and Exp.
func Ablation(o Options) (Result, error) {
	o = o.withDefaults()
	var text, csv strings.Builder
	csv.WriteString("ablation,variant,ns_per_step\n")

	// --- 1. graph optimizer ---
	rng := rand.New(rand.NewSource(o.Seed))
	g := graph.New()
	x := g.Placeholder("x", 16, 64)
	// A deliberately redundant inference graph: shared subexpressions
	// written twice, constant chains, and identity wrappers.
	w := g.Variable("fc/W", nn.Glorot(rng, 64, 256, 64, 256))
	b := g.Variable("fc/b", tensor.New(256))
	layer := func() *graph.Node { // built twice: identical subexpression
		return ops.Relu(ops.Add(ops.MatMul(x, w), b))
	}
	scale := ops.Mul(ops.ScalarConst(g, 2), ops.ScalarConst(g, 3))
	branchA := ops.Mul(ops.Identity(layer()), scale)
	branchB := ops.Mul(ops.Identity(layer()), scale) // CSE folds the whole layer
	out := ops.Add(branchA, branchB)

	ctx := &graph.ExecContext{Pool: tensor.NewPool(1), RNG: rand.New(rand.NewSource(o.Seed))}
	optRes, err := graph.Optimize(ctx, []*graph.Node{out})
	if err != nil {
		return Result{}, err
	}
	feed := tensor.RandNormal(rng, 0, 1, 16, 64)
	unfused := runtime.WithUnfusedPlans()
	timeGraph := func(g *graph.Graph, fetch *graph.Node, ph *graph.Node, in *tensor.Tensor, opts ...runtime.Option) (time.Duration, error) {
		s := runtime.NewSession(g, append([]runtime.Option{runtime.WithTrace(), runtime.WithSeed(o.Seed)}, opts...)...)
		const reps = 20
		for i := 0; i < reps; i++ {
			if _, err := s.Run([]*graph.Node{fetch}, runtime.Feeds{ph: in}); err != nil {
				return 0, err
			}
		}
		return s.SimTime() / reps, nil
	}
	raw, err := timeGraph(g, out, x, feed, unfused)
	if err != nil {
		return Result{}, err
	}
	var nx *graph.Node
	for _, n := range optRes.Graph.Nodes() {
		if n.Kind() == graph.KindPlaceholder {
			nx = n
		}
	}
	opt, err := timeGraph(optRes.Graph, optRes.Fetch(out), nx, feed, unfused)
	if err != nil {
		return Result{}, err
	}
	fmt.Fprintf(&text, "graph optimizer (identity/fold/CSE) on a redundant inference graph:\n")
	fmt.Fprintf(&text, "  raw graph:       %4d nodes   %v/step\n", g.NumNodes(), raw)
	fmt.Fprintf(&text, "  optimized graph: %4d nodes   %v/step   (%d identities, %d folds, %d CSE merges)\n",
		optRes.Graph.NumNodes(), opt, optRes.IdentitiesElided, optRes.ConstantsFolded, optRes.CSEMerged)
	fmt.Fprintf(&csv, "optimizer,raw,%d\noptimizer,optimized,%d\n", raw.Nanoseconds(), opt.Nanoseconds())

	// --- 2. fused vs primitive softmax ---
	g2 := graph.New()
	in2 := g2.Placeholder("x", 64, 512)
	fused := ops.Softmax(in2)
	prim := nn.PrimitiveSoftmax(in2)
	feed2 := tensor.RandNormal(rng, 0, 1, 64, 512)
	tf, err := timeGraph(g2, fused, in2, feed2, unfused)
	if err != nil {
		return Result{}, err
	}
	tp, err := timeGraph(g2, prim, in2, feed2, unfused)
	if err != nil {
		return Result{}, err
	}
	tpf, err := timeGraph(g2, prim, in2, feed2)
	if err != nil {
		return Result{}, err
	}
	fmt.Fprintf(&text, "\nkernel fusion — softmax over (64,512):\n")
	fmt.Fprintf(&text, "  fused Softmax op:            %v/step\n", tf)
	fmt.Fprintf(&text, "  Max/Sub/Exp/Sum/Div recipe:  %v/step (%.2fx)\n", tp, float64(tp)/float64(tf))
	fmt.Fprintf(&text, "  the recipe, plan fusion on:  %v/step (%.2fx)\n", tpf, float64(tpf)/float64(tf))
	fmt.Fprintf(&csv, "softmax,fused,%d\nsoftmax,primitive,%d\nsoftmax,primitive_plan_fused,%d\n", tf.Nanoseconds(), tp.Nanoseconds(), tpf.Nanoseconds())

	// --- 3. fused BatchMatMul vs Mul+Tile+Sum attention scores ---
	g3 := graph.New()
	enc := g3.Placeholder("enc", 16, 32, 64)  // (B,T,H)
	qry := g3.Placeholder("q", 16, 64)        // (B,H)
	q3 := ops.ExpandDims(qry, 2)              // (B,H,1)
	fusedScores := ops.BatchMatMul(enc, q3)   // (B,T,1)
	qe := ops.ExpandDims(qry, 1)              // (B,1,H)
	qt := ops.TileN(qe, []int{1, 32, 1})      // (B,T,H)
	decScores := ops.Sum(ops.Mul(enc, qt), 2) // (B,T)
	feedEnc := tensor.RandNormal(rng, 0, 1, 16, 32, 64)
	feedQ := tensor.RandNormal(rng, 0, 1, 16, 64)
	timePair := func(fetch *graph.Node) (time.Duration, error) {
		s := runtime.NewSession(g3, runtime.WithTrace(), runtime.WithSeed(o.Seed), unfused)
		const reps = 20
		for i := 0; i < reps; i++ {
			if _, err := s.Run([]*graph.Node{fetch}, runtime.Feeds{enc: feedEnc, qry: feedQ}); err != nil {
				return 0, err
			}
		}
		return s.SimTime() / reps, nil
	}
	tb, err := timePair(fusedScores)
	if err != nil {
		return Result{}, err
	}
	td, err := timePair(decScores)
	if err != nil {
		return Result{}, err
	}
	fmt.Fprintf(&text, "\nattention scores (B=16,T=32,H=64) — the decomposition the paper profiles:\n")
	fmt.Fprintf(&text, "  fused BatchMatMul:  %v/step\n", tb)
	fmt.Fprintf(&text, "  Mul+Tile+Sum:       %v/step (%.2fx)\n", td, float64(td)/float64(tb))
	fmt.Fprintf(&csv, "attention,batchmatmul,%d\nattention,mul_tile_sum,%d\n", tb.Nanoseconds(), td.Nanoseconds())

	_ = core.PresetRef // options currently unused beyond seed; keep signature uniform
	return Result{ID: "ablation", Title: "Ablations: optimizer passes and kernel fusion", Text: text.String(), CSV: csv.String()}, nil
}
