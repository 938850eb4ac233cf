package ops

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

const attnScale = 0.25

func attnOperands(t *testing.T) (q, k, v *tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	return tensor.RandNormal(rng, 0, 1, 3, 12, 5),
		tensor.RandNormal(rng, 0, 1, 3, 12, 5),
		tensor.RandNormal(rng, 0, 1, 3, 12, 5)
}

func attnGraph(qv, kv, vv *tensor.Tensor) (*graph.Graph, *graph.Node, []*graph.Node) {
	g := graph.New()
	q := g.Variable("q", qv.Clone())
	k := g.Variable("k", kv.Clone())
	v := g.Variable("v", vv.Clone())
	out := NaiveAttention(q, k, v, attnScale)
	return g, out, []*graph.Node{q, k, v}
}

// TestFuseAttentionBitIdentical: graph.FuseAttention rewrites the
// unfused Softmax(BatchMatMul(Q,Kᵀ)·scale)·V chain into one
// FusedAttention node whose output is bit-identical to the unfused
// graph — the streaming kernel applies the same float operations in
// the same order.
func TestFuseAttentionBitIdentical(t *testing.T) {
	qv, kv, vv := attnOperands(t)
	gU, outU, _ := attnGraph(qv, kv, vv)
	gF, outF, _ := attnGraph(qv, kv, vv)
	if fused := graph.FuseAttention(gF, outF); fused != 1 {
		t.Fatalf("expected 1 attention fusion, got %d", fused)
	}
	if outF.OpName() != "FusedAttention" {
		t.Fatalf("fused op name %q", outF.OpName())
	}
	if len(outF.Inputs()) != 3 {
		t.Fatalf("fused node has %d inputs, want Q,K,V", len(outF.Inputs()))
	}
	want := runAll(t, gU, []*graph.Node{outU}, nil)[0]
	got := runAll(t, gF, []*graph.Node{outF}, nil)[0]
	if d := tensor.MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("fused attention differs from unfused chain (max |Δ| %g)", d)
	}
}

// TestFuseAttentionGradBitIdentical: fusing before gradient
// construction must not change training math. The fused op's Grad
// recomputes the probability matrix with the same primitive ops the
// unfused chain materializes, so dQ, dK and dV are bit-identical.
func TestFuseAttentionGradBitIdentical(t *testing.T) {
	qv, kv, vv := attnOperands(t)

	build := func(fuse bool) []*tensor.Tensor {
		g, out, params := attnGraph(qv, kv, vv)
		if fuse {
			if fused := graph.FuseAttention(g); fused != 1 {
				t.Fatalf("expected 1 attention fusion, got %d", fused)
			}
		}
		loss := Sum(Sum(Sum(out, 2), 1), 0)
		grads, err := graph.Gradients(loss, params)
		if err != nil {
			t.Fatal(err)
		}
		return runAll(t, g, append([]*graph.Node{out, loss}, grads...), nil)
	}

	want := build(false)
	got := build(true)
	names := []string{"out", "loss", "dQ", "dK", "dV"}
	for i := range want {
		if d := tensor.MaxAbsDiff(got[i], want[i]); d != 0 {
			t.Errorf("%s differs between fused and unfused training graphs (max |Δ| %g)", names[i], d)
		}
	}
}

// TestFuseAttentionGates pins the conservative gates: a chain
// intermediate that is fetched (keep), multi-read, or not the exact
// pattern stays unfused.
func TestFuseAttentionGates(t *testing.T) {
	qv, kv, vv := attnOperands(t)

	t.Run("keep_probabilities", func(t *testing.T) {
		g := graph.New()
		q := g.Variable("q", qv.Clone())
		k := g.Variable("k", kv.Clone())
		v := g.Variable("v", vv.Clone())
		kt := TransposePerm(k, []int{0, 2, 1})
		w := Softmax(Mul(BatchMatMul(q, kt), ScalarConst(g, attnScale)))
		out := BatchMatMul(w, v)
		if fused := graph.FuseAttention(g, out, w); fused != 0 {
			t.Fatalf("kept probability node was fused (%d)", fused)
		}
	})

	t.Run("multi_reader_probabilities", func(t *testing.T) {
		g := graph.New()
		q := g.Variable("q", qv.Clone())
		k := g.Variable("k", kv.Clone())
		v := g.Variable("v", vv.Clone())
		kt := TransposePerm(k, []int{0, 2, 1})
		w := Softmax(Mul(BatchMatMul(q, kt), ScalarConst(g, attnScale)))
		out := BatchMatMul(w, v)
		tap := Sum(w, 2) // second reader, e.g. a gradient tap
		_ = tap
		if fused := graph.FuseAttention(g, out); fused != 0 {
			t.Fatalf("multi-read probability node was fused (%d)", fused)
		}
	})

	t.Run("non_scalar_scale", func(t *testing.T) {
		g := graph.New()
		q := g.Variable("q", qv.Clone())
		k := g.Variable("k", kv.Clone())
		v := g.Variable("v", vv.Clone())
		kt := TransposePerm(k, []int{0, 2, 1})
		rowScale := g.Const("row_scale", tensor.Full(0.25, 1, 1, 12))
		w := Softmax(Mul(BatchMatMul(q, kt), rowScale))
		out := BatchMatMul(w, v)
		if fused := graph.FuseAttention(g, out); fused != 0 {
			t.Fatalf("non-scalar scale was fused (%d)", fused)
		}
	})

	t.Run("wrong_transpose_perm", func(t *testing.T) {
		g := graph.New()
		q := g.Variable("q", qv.Clone())
		k := g.Variable("k", tensor.RandNormal(rand.New(rand.NewSource(9)), 0, 1, 3, 5, 12))
		v := g.Variable("v", vv.Clone())
		kt := TransposePerm(k, []int{0, 1, 2}) // not the (0,2,1) key transpose
		w := Softmax(Mul(BatchMatMul(q, kt), ScalarConst(g, attnScale)))
		out := BatchMatMul(w, v)
		if fused := graph.FuseAttention(g, out); fused != 0 {
			t.Fatalf("non-(0,2,1) transpose was fused (%d)", fused)
		}
	})
}

// TestOptimizeRunsAttentionFusion: the attention pass is part of the
// standard Optimize pipeline.
func TestOptimizeRunsAttentionFusion(t *testing.T) {
	qv, kv, vv := attnOperands(t)
	g, out, _ := attnGraph(qv, kv, vv)
	pool := tensor.NewPool(1)
	res, err := graph.Optimize(&graph.ExecContext{Pool: pool, RNG: rand.New(rand.NewSource(1))}, []*graph.Node{out})
	if err != nil {
		t.Fatal(err)
	}
	if res.FusedAttention != 1 {
		t.Fatalf("Optimize fused %d attention chains, want 1", res.FusedAttention)
	}
	if name := res.Fetch(out).OpName(); name != "FusedAttention" {
		t.Fatalf("optimized fetch op %q", name)
	}
	want := runAll(t, g, []*graph.Node{out}, nil)[0]
	got := runAll(t, res.Graph, []*graph.Node{res.Fetch(out)}, nil)[0]
	if d := tensor.MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("optimized graph differs (max |Δ| %g)", d)
	}
}
