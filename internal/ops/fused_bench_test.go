package ops

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// BenchmarkEpilogueFusion runs relu(x·W+b) at a blocked-GEMM size as
// one session fetch per iteration, unfused against fused: the fused
// variant folds the bias add and the relu into the MatMul node, saving
// two graph steps, two intermediate allocations and two full passes
// over the activation tensor. Results are bit-identical by the fusion
// contract, so ns/op is the whole difference.
func BenchmarkEpilogueFusion(b *testing.B) {
	const batch, in, out = 64, 512, 512
	rng := rand.New(rand.NewSource(1))
	wv := tensor.RandNormal(rng, 0, 1, in, out)
	bv := tensor.RandNormal(rng, 0, 1, out)
	xv := tensor.RandNormal(rng, 0, 1, batch, in)

	build := func(fuse bool) (*runtime.Session, []*graph.Node, runtime.Feeds) {
		g := graph.New()
		x := g.Placeholder("x", batch, in)
		w := g.Variable("w", wv.Clone())
		bias := g.Variable("b", bv.Clone())
		y := Relu(Add(MatMul(x, w), bias))
		opts := []runtime.Option{runtime.WithSeed(1)}
		if fuse {
			if fused := graph.FuseEpilogues(g, y); fused != 2 {
				b.Fatalf("expected 2 fusions, got %d", fused)
			}
		} else {
			opts = append(opts, runtime.WithUnfusedPlans()) // or the plan would fuse Add and Relu
		}
		return runtime.NewSession(g, opts...), []*graph.Node{y}, runtime.Feeds{x: xv}
	}

	for _, cfg := range []struct {
		name string
		fuse bool
	}{{"unfused", false}, {"fused", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			s, fetch, feeds := build(cfg.fuse)
			b.SetBytes(int64(2 * batch * in * out))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(fetch, feeds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
