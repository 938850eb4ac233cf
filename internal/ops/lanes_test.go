package ops

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

func randomTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	tensor.FillNormal(t, rng, 0, 1)
	return t
}

// laneOf copies lane k of a stacked (K,…) tensor.
func laneOf(t *tensor.Tensor, k int) *tensor.Tensor {
	shape := t.Shape()[1:]
	n := tensor.SizeOf(shape)
	out := tensor.New(shape...)
	copy(out.Data(), t.Data()[k*n:(k+1)*n])
	return out
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func varNamed(t *testing.T, g *graph.Graph, name string) *graph.Node {
	t.Helper()
	for _, v := range g.Variables() {
		if v.Name() == name {
			return v
		}
	}
	t.Fatalf("no variable %q", name)
	return nil
}

// TestApplyLaneIndependence is the oracle for the one apply-op: for
// every rule, lane k of a stacked update — the target and every slot —
// is bit-equal to a one-lane op on that lane's data stepping at
// lrs[k], so the K-lane call is K standalone updates and nothing else.
// The stack runs at intra-op width 4 over lanes big enough to split, so
// the chunk grid is in the comparison too.
func TestApplyLaneIndependence(t *testing.T) {
	lane := []int{33, 1000} // 33000 ≥ 2 × the largest grain: every rule's For splits
	rules := []struct {
		rule  string
		hyper []float32
	}{
		{"GradientDescent", nil},
		{"Momentum", []float32{0.9}},
		{"RMSProp", []float32{0.95, 0.01}},
		{"Adam", []float32{0.9, 0.999, 1e-8}},
		{"Adagrad", []float32{1e-8}},
	}
	const steps = 3
	for _, tc := range rules {
		for _, k := range []int{1, 3} {
			rng := rand.New(rand.NewSource(int64(7 + k)))
			lrs := make([]float32, k)
			for i := range lrs {
				lrs[i] = 0.01 * float32(i+1)
			}
			stackShape := append([]int{k}, lane...)
			init := randomTensor(rng, stackShape...)

			g := graph.New()
			w := g.Variable("w", init.Clone())
			gin := g.Placeholder("g", stackShape...)
			up, err := ApplyUpdate(tc.rule, w, gin, lrs, true, tc.hyper...)
			if err != nil {
				t.Fatal(err)
			}
			if want := "ArrayApply" + tc.rule; up.OpName() != want {
				t.Fatalf("stacked op reports %q, want %q", up.OpName(), want)
			}
			sess := runtime.NewSession(g, runtime.WithIntraOpWorkers(4))

			type ref struct {
				g       *graph.Graph
				gin, up *graph.Node
				sess    *runtime.Session
			}
			refs := make([]ref, k)
			for i := range refs {
				rg := graph.New()
				rw := rg.Variable("w", laneOf(init, i))
				rin := rg.Placeholder("g", lane...)
				rup, err := ApplyUpdate(tc.rule, rw, rin, lrs[i:i+1], false, tc.hyper...)
				if err != nil {
					t.Fatal(err)
				}
				if want := "Apply" + tc.rule; rup.OpName() != want {
					t.Fatalf("one-lane op reports %q, want %q", rup.OpName(), want)
				}
				refs[i] = ref{rg, rin, rup, runtime.NewSession(rg)}
			}

			for s := 0; s < steps; s++ {
				grad := randomTensor(rng, stackShape...)
				sess.MustRun([]*graph.Node{up}, runtime.Feeds{gin: grad})
				for i, r := range refs {
					r.sess.MustRun([]*graph.Node{r.up}, runtime.Feeds{r.gin: laneOf(grad, i)})
				}
			}

			for _, v := range g.Variables() {
				for i, r := range refs {
					got, want := v.Value(), varNamed(t, r.g, v.Name()).Value()
					if v.Name() == "w/slot/step" {
						if d := got.Data(); len(d) != 1 || d[0] != steps {
							t.Fatalf("%s K=%d: step counter %v after %d steps", tc.rule, k, d, steps)
						}
					} else {
						got = laneOf(got, i)
					}
					if !sameBits(got.Data(), want.Data()) {
						t.Fatalf("%s K=%d: lane %d of %s differs from the one-lane run", tc.rule, k, i, v.Name())
					}
				}
			}
			sess.Close()
		}

		// A stack whose leading axis is not the lane count is rejected
		// by InferShape, before any slot variable exists; so is an
		// unstacked variable given more than one rate.
		g := graph.New()
		w := g.Variable("w", tensor.New(3, 4))
		gin := g.Placeholder("g", 3, 4)
		if _, err := ApplyUpdate(tc.rule, w, gin, []float32{0.1, 0.2}, true, tc.hyper...); err == nil {
			t.Fatalf("%s: 2 rates over a 3-lane stack must not build", tc.rule)
		}
		if _, err := ApplyUpdate(tc.rule, w, gin, []float32{0.1, 0.2}, false, tc.hyper...); err == nil {
			t.Fatalf("%s: 2 rates over an unstacked variable must not build", tc.rule)
		}
		if n := len(g.Variables()); n != 1 {
			t.Fatalf("%s: rejected updates left %d variables behind", tc.rule, n-1)
		}
	}
}

// TestStackedDropoutMatchesStandalone: dropout over a (K,…) stack
// samples one per-lane mask — exactly the draws a standalone run
// makes, so the shared RNG stream stays aligned — and every lane's
// output and gradient are the standalone run's bits.
func TestStackedDropoutMatchesStandalone(t *testing.T) {
	const k, seed = 3, 11
	lane := []int{50, 40}
	stackShape := append([]int{k}, lane...)
	rng := rand.New(rand.NewSource(2))
	x, dy := randomTensor(rng, stackShape...), randomTensor(rng, stackShape...)

	run := func(build func(x *graph.Node) (*graph.Node, error), x, dy *tensor.Tensor) (out, grad *tensor.Tensor, next float32) {
		g := graph.New()
		d, err := build(g.Const("x", x))
		if err != nil {
			t.Fatal(err)
		}
		gin := g.Placeholder("dy", dy.Shape()...)
		dg, err := DropoutGradOf(d, gin)
		if err != nil {
			t.Fatal(err)
		}
		s := runtime.NewSession(g, runtime.WithSeed(seed))
		s.SetTraining(true)
		outs := s.MustRun([]*graph.Node{d, dg}, runtime.Feeds{gin: dy})
		return outs[0], outs[1], s.Context().RNG.Float32()
	}
	stacked := func(x *graph.Node) (*graph.Node, error) { return StackedDropout(x, 0.4) }
	standalone := func(x *graph.Node) (*graph.Node, error) { return Dropout(x, 0.4), nil }

	fout, fgrad, fnext := run(stacked, x, dy)
	for i := 0; i < k; i++ {
		out, grad, next := run(standalone, laneOf(x, i), laneOf(dy, i))
		if next != fnext {
			t.Fatalf("stacked dropout left the RNG stream elsewhere than a standalone run: next draw %v vs %v", fnext, next)
		}
		if !sameBits(laneOf(fout, i).Data(), out.Data()) {
			t.Fatalf("lane %d output differs from standalone dropout", i)
		}
		if !sameBits(laneOf(fgrad, i).Data(), grad.Data()) {
			t.Fatalf("lane %d gradient differs from standalone dropout", i)
		}
	}

	// Op-type names the profiles key on.
	g := graph.New()
	d, err := StackedDropout(g.Const("x", x), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := DropoutGradOf(d, g.Const("dy", dy))
	if err != nil {
		t.Fatal(err)
	}
	if d.OpName() != "ArrayDropout" || dg.OpName() != "ArrayDropoutGrad" {
		t.Fatalf("stacked dropout reports %q / %q", d.OpName(), dg.OpName())
	}
	// Inference mode is the identity, as a copy: the step owns a slot
	// in either mode.
	ctx := &graph.ExecContext{Pool: tensor.NewPool(1), RNG: rand.New(rand.NewSource(1))}
	if out, err := graph.Forward(ctx, d.Op(), []*tensor.Tensor{x}); err != nil || out == x || !sameBits(out.Data(), x.Data()) {
		t.Fatalf("inference-mode stacked dropout must return a copy of its input (err %v)", err)
	}
}
