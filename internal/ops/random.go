package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// ---- random sampling (class E) ----

// randomNormalOp draws from N(0,1); shift/scale are done with ordinary
// elementwise ops so the profile shows the sampling separately, as the
// paper's variational-autoencoder analysis expects.
type randomNormalOp struct{ shape []int }

func (randomNormalOp) Name() string         { return "RandomStandardNormal" }
func (randomNormalOp) Class() graph.OpClass { return graph.ClassRandom }
func (o randomNormalOp) InferShape(in [][]int) ([]int, error) {
	if len(in) != 0 {
		return nil, fmt.Errorf("RandomStandardNormal takes no inputs")
	}
	return copyShape(o.shape), nil
}
func (randomNormalOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	tensor.FillNormal(out, ctx.RNG, 0, 1)
	return nil
}

// Impure implements graph.Impure: sampling must never be folded.
func (randomNormalOp) Impure() {}

// RandomStandardNormal adds a N(0,1) sampling node of the given shape.
func RandomStandardNormal(g *graph.Graph, shape ...int) *graph.Node {
	return g.MustApply(randomNormalOp{shape: append([]int(nil), shape...)})
}

type randomUniformOp struct{ shape []int }

func (randomUniformOp) Name() string         { return "RandomUniform" }
func (randomUniformOp) Class() graph.OpClass { return graph.ClassRandom }
func (o randomUniformOp) InferShape(in [][]int) ([]int, error) {
	if len(in) != 0 {
		return nil, fmt.Errorf("RandomUniform takes no inputs")
	}
	return copyShape(o.shape), nil
}
func (randomUniformOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	tensor.FillUniform(out, ctx.RNG, 0, 1)
	return nil
}

// Impure implements graph.Impure.
func (randomUniformOp) Impure() {}

// RandomUniform adds a U[0,1) sampling node of the given shape.
func RandomUniform(g *graph.Graph, shape ...int) *graph.Node {
	return g.MustApply(randomUniformOp{shape: append([]int(nil), shape...)})
}

// ---- Dropout (class E) ----
//
// dropoutOp is stateful: the forward pass samples an inverted-dropout
// mask and stores it so the paired DropoutGrad applies the *same* mask.
// This mirrors cuDNN-style fused dropout. The executor runs operations
// sequentially and the gradient is topologically after the forward op,
// so the handoff is safe. In inference mode dropout is the identity —
// as a copy, not a view: Training is a session flag a compiled plan
// cannot see, so the step owns a slot in either mode and fills it.
//
// lead is the number of leading axes the mask does not span: 0 for an
// ordinary tensor, 1 for a horizontally fused (K,…) stack (see
// internal/fuse), which the op then reports as ArrayDropout. The mask
// is sampled over x.Shape()[lead:] — for a stack, draw for draw the
// mask one standalone run samples, so every later draw in the shared
// RNG stream stays aligned — and applied to every lane. Lanes share
// the seed by construction (fusion admits only seed-identical
// instances), so the shared mask is exactly the mask each standalone
// run would sample.
type dropoutOp struct {
	rate float32
	lead int
	mask *tensor.Tensor // last sampled mask (training only)
}

// dropoutName prefixes the op-type name of the stacked form.
func dropoutName(lead int, name string) string {
	if lead > 0 {
		return "Array" + name
	}
	return name
}

func (o *dropoutOp) Name() string       { return dropoutName(o.lead, "Dropout") }
func (*dropoutOp) Class() graph.OpClass { return graph.ClassRandom }
func (o *dropoutOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs(o.Name(), in, 1); err != nil {
		return nil, err
	}
	if len(in[0]) < o.lead {
		return nil, fmt.Errorf("%s input %v has no leading fusion axis", o.Name(), in[0])
	}
	return copyShape(in[0]), nil
}
func (o *dropoutOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	x := in[0]
	if !ctx.Training || o.rate <= 0 {
		copy(out.Data(), x.Data())
		return nil
	}
	keep := 1 - o.rate
	mask := tensor.New(x.Shape()[o.lead:]...)
	md := mask.Data()
	inv := 1 / keep
	for i := range md {
		if ctx.RNG.Float32() < keep {
			md[i] = inv
		}
	}
	o.mask = mask
	return o.applyMask(ctx, x, out)
}

// applyMask multiplies x by the saved mask into out. A stack's mask has
// the per-lane shape, which broadcasts over the leading lane axis;
// products are elementwise, so every lane holds the bits a standalone
// run computes.
func (o *dropoutOp) applyMask(ctx *graph.ExecContext, x, out *tensor.Tensor) error {
	return tensor.PointwiseInto(ctx.Pool, out, tensor.ScalarFn{Op: tensor.Mul}, x, o.mask)
}
func (o *dropoutOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	return []*graph.Node{g.MustApply(&dropoutGradOp{src: o}, grad)}, nil
}

type dropoutGradOp struct{ src *dropoutOp }

func (o *dropoutGradOp) Name() string       { return dropoutName(o.src.lead, "DropoutGrad") }
func (*dropoutGradOp) Class() graph.OpClass { return graph.ClassRandom }
func (o *dropoutGradOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs(o.Name(), in, 1); err != nil {
		return nil, err
	}
	return copyShape(in[0]), nil
}
func (o *dropoutGradOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	if !ctx.Training || o.src.rate <= 0 || o.src.mask == nil {
		copy(out.Data(), in[0].Data())
		return nil
	}
	return o.src.applyMask(ctx, in[0], out)
}

// Impure implements graph.Impure: dropout is stateful and stochastic.
func (*dropoutOp) Impure() {}

// Impure implements graph.Impure.
func (*dropoutGradOp) Impure() {}

// Dropout applies inverted dropout with the given drop rate during
// training and is the identity during inference.
func Dropout(x *graph.Node, rate float32) *graph.Node {
	return x.Graph().MustApply(&dropoutOp{rate: rate}, x)
}

// StackedDropout is Dropout over a horizontally fused (K,…) stack: one
// mask of the per-lane shape, shared by all K lanes.
func StackedDropout(x *graph.Node, rate float32) (*graph.Node, error) {
	return x.Graph().Apply(&dropoutOp{rate: rate, lead: 1}, x)
}

// DropoutGradOf adds the gradient op paired with the dropout node
// drop, replaying its saved mask over grad.
func DropoutGradOf(drop, grad *graph.Node) (*graph.Node, error) {
	src, ok := drop.Op().(*dropoutOp)
	if !ok {
		return nil, fmt.Errorf("ops: DropoutGradOf source %s is not a dropout", drop.OpName())
	}
	return grad.Graph().Apply(&dropoutGradOp{src: src}, grad)
}
