package ops

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// BenchmarkEpilogueFusion runs relu(x·W+b) at a blocked-GEMM size as
// one session fetch per iteration, on an unfused plan against the
// default fused one, whose GEMM heads a step that takes in the bias add
// and the relu: two fewer plan steps, two fewer intermediate slots and
// two fewer full passes over the activation tensor. Results are
// bit-identical by the fusion contract, so ns/op is the whole
// difference.
func BenchmarkEpilogueFusion(b *testing.B) {
	const batch, in, out = 64, 512, 512
	rng := rand.New(rand.NewSource(1))
	wv := tensor.RandNormal(rng, 0, 1, in, out)
	bv := tensor.RandNormal(rng, 0, 1, out)
	xv := tensor.RandNormal(rng, 0, 1, batch, in)

	for _, cfg := range []struct {
		name string
		opts []runtime.Option
	}{{"unfused", []runtime.Option{runtime.WithUnfusedPlans()}}, {"fused", nil}} {
		b.Run(cfg.name, func(b *testing.B) {
			g := graph.New()
			x := g.Placeholder("x", batch, in)
			y := Relu(Add(MatMul(x, g.Variable("w", wv.Clone())), g.Variable("b", bv.Clone())))
			s := runtime.NewSession(g, append([]runtime.Option{runtime.WithSeed(1)}, cfg.opts...)...)
			defer s.Close()
			fetch, feeds := []*graph.Node{y}, runtime.Feeds{x: xv}
			if ops := s.Plan(fetch).Ops(); (ops == 1) != (cfg.opts == nil) {
				b.Fatalf("%s plan runs %d op steps", cfg.name, ops)
			}
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
