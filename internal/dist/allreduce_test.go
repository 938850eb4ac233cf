package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// TestAllReduceMatchesHandLoop holds the all-reduce to the plain loop
// bit for bit: copy chunk 0's gradient, add chunks 1…C−1 in ascending
// order, multiply by 1/C, every step rounded to float32. The chunk
// grids cover one chunk (the fold is empty and only the scale runs),
// three chunks on three replicas and four on two. The parameters are
// one of 40,000 elements, which the evaluator splits on the two-wide
// pool, and one of 63, which runs as one block. Gradients span six
// decades of both signs, so a combine in any other order moves bits.
func TestAllReduceMatchesHandLoop(t *testing.T) {
	pool := sched.New(4)
	defer pool.Close()
	shapes := [][]int{{40000}, {7, 9}}
	build := func(core.Config) (*Program, error) {
		g := graph.New()
		prog := &Program{Graph: g, Batch: 1, Loss: g.Placeholder("loss", 1), Inputs: map[string]*graph.Node{}}
		for p, s := range shapes {
			prog.GradIn = append(prog.GradIn, g.Placeholder(fmt.Sprintf("grad%d", p), s...))
		}
		return prog, nil
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for _, grid := range []struct{ chunks, replicas int }{{1, 1}, {3, 3}, {4, 2}} {
		tr, err := NewEngine("test", "allreduce", Options{Chunks: grid.chunks, Replicas: grid.replicas, Pool: pool}, build)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < grid.chunks; c++ {
			r := tr.replicas[tr.part.Owner(c)]
			grads := make([]*tensor.Tensor, len(shapes))
			for p, s := range shapes {
				grads[p] = tensor.New(s...)
				for i := range grads[p].Data() {
					grads[p].Data()[i] = float32((rng.Float64()*2 - 1) * math.Pow(10, float64(rng.IntN(7)-3)))
				}
			}
			r.chunkGrads[c-r.lo] = grads
		}
		if err := tr.reduce(); err != nil {
			t.Fatal(err)
		}
		for p := range shapes {
			want := append([]float32(nil), tr.chunkGrad(0, p).Data()...)
			for c := 1; c < grid.chunks; c++ {
				for i, v := range tr.chunkGrad(c, p).Data() {
					want[i] += v
				}
			}
			inv := 1 / float32(grid.chunks)
			for i := range want {
				want[i] *= inv
			}
			for i, v := range tr.comb[p].Data() {
				if math.Float32bits(v) != math.Float32bits(want[i]) {
					t.Fatalf("chunks %d, replicas %d: parameter %v element %d = %v, want %v",
						grid.chunks, grid.replicas, shapes[p], i, v, want[i])
				}
			}
		}
		tr.Close()
	}
}
