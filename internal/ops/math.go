package ops

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// ---- binary elementwise ops with broadcasting (class C) ----

// binKind enumerates the broadcasting binary arithmetic ops.
type binKind int

const (
	binAdd binKind = iota
	binSub
	binMul
	binDiv
	binMaximum
	binMinimum
)

var binNames = [...]string{"Add", "Sub", "Mul", "Div", "Maximum", "Minimum"}

type binOp struct{ kind binKind }

func (o binOp) Name() string         { return binNames[o.kind] }
func (o binOp) Class() graph.OpClass { return graph.ClassElementwise }

func (o binOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs(o.Name(), in, 2); err != nil {
		return nil, err
	}
	return tensor.BroadcastShapes(in[0], in[1])
}

func (o binOp) fn() func(a, b float32) float32 {
	switch o.kind {
	case binAdd:
		return func(a, b float32) float32 { return a + b }
	case binSub:
		return func(a, b float32) float32 { return a - b }
	case binMul:
		return func(a, b float32) float32 { return a * b }
	case binDiv:
		return func(a, b float32) float32 { return a / b }
	case binMaximum:
		return func(a, b float32) float32 {
			if a > b {
				return a
			}
			return b
		}
	case binMinimum:
		return func(a, b float32) float32 {
			if a < b {
				return a
			}
			return b
		}
	}
	panic("ops: unhandled binary kind")
}

func (o binOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.PointwiseInto(ctx.Pool, out, o.Pointwise(), in...)
}

// Pointwise implements graph.Pointwise.
func (o binOp) Pointwise() tensor.ScalarFn { return tensor.ScalarFn{Bin: o.fn()} }

func (o binOp) Cost(in [][]int, out []int) (int64, int64) {
	return int64(tensor.SizeOf(out)), defaultBytes(in, out)
}

// sumToShape reduces grad to the given input shape, undoing
// broadcasting. When shapes match it returns grad unchanged, keeping
// profiles free of no-op reductions.
func sumToShape(g *graph.Graph, grad *graph.Node, shape []int) *graph.Node {
	if tensor.SameShape(grad.Shape(), shape) {
		return grad
	}
	return g.MustApply(sumToOp{target: copyShape(shape)}, grad)
}

func (o binOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	a, b := n.Inputs()[0], n.Inputs()[1]
	switch o.kind {
	case binAdd:
		return []*graph.Node{sumToShape(g, grad, a.Shape()), sumToShape(g, grad, b.Shape())}, nil
	case binSub:
		return []*graph.Node{sumToShape(g, grad, a.Shape()), sumToShape(g, Neg(grad), b.Shape())}, nil
	case binMul:
		return []*graph.Node{
			sumToShape(g, Mul(grad, b), a.Shape()),
			sumToShape(g, Mul(grad, a), b.Shape()),
		}, nil
	case binDiv:
		ga := Div(grad, b)
		gb := Neg(Mul(grad, Div(n, b))) // -grad·(a/b)/b
		return []*graph.Node{sumToShape(g, ga, a.Shape()), sumToShape(g, gb, b.Shape())}, nil
	case binMaximum:
		maskA := LessEqual(b, a) // 1 where a wins (ties to a, matching the kernel)
		maskB := Sub(ScalarConst(g, 1), maskA)
		return []*graph.Node{
			sumToShape(g, Mul(grad, maskA), a.Shape()),
			sumToShape(g, Mul(grad, maskB), b.Shape()),
		}, nil
	case binMinimum:
		maskA := LessEqual(a, b)
		maskB := Sub(ScalarConst(g, 1), maskA)
		return []*graph.Node{
			sumToShape(g, Mul(grad, maskA), a.Shape()),
			sumToShape(g, Mul(grad, maskB), b.Shape()),
		}, nil
	}
	return nil, fmt.Errorf("unreachable binary kind")
}

// Add returns a+b with broadcasting.
func Add(a, b *graph.Node) *graph.Node { return a.Graph().MustApply(binOp{binAdd}, a, b) }

// Sub returns a-b with broadcasting.
func Sub(a, b *graph.Node) *graph.Node { return a.Graph().MustApply(binOp{binSub}, a, b) }

// Mul returns a*b with broadcasting.
func Mul(a, b *graph.Node) *graph.Node { return a.Graph().MustApply(binOp{binMul}, a, b) }

// Div returns a/b with broadcasting.
func Div(a, b *graph.Node) *graph.Node { return a.Graph().MustApply(binOp{binDiv}, a, b) }

// Maximum returns max(a,b) with broadcasting.
func Maximum(a, b *graph.Node) *graph.Node { return a.Graph().MustApply(binOp{binMaximum}, a, b) }

// Minimum returns min(a,b) with broadcasting.
func Minimum(a, b *graph.Node) *graph.Node { return a.Graph().MustApply(binOp{binMinimum}, a, b) }

// ---- comparisons (class C, non-differentiable masks) ----

type lessEqualOp struct{}

func (lessEqualOp) Name() string         { return "LessEqual" }
func (lessEqualOp) Class() graph.OpClass { return graph.ClassElementwise }
func (lessEqualOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("LessEqual", in, 2); err != nil {
		return nil, err
	}
	return tensor.BroadcastShapes(in[0], in[1])
}
func lessEqualFn(a, b float32) float32 {
	if a <= b {
		return 1
	}
	return 0
}

func (lessEqualOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.PointwiseInto(ctx.Pool, out, tensor.ScalarFn{Bin: lessEqualFn}, in...)
}

// LessEqual returns the 0/1 mask of a <= b (no gradient).
func LessEqual(a, b *graph.Node) *graph.Node { return a.Graph().MustApply(lessEqualOp{}, a, b) }

type equalOp struct{}

func (equalOp) Name() string         { return "Equal" }
func (equalOp) Class() graph.OpClass { return graph.ClassElementwise }
func (equalOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("Equal", in, 2); err != nil {
		return nil, err
	}
	return tensor.BroadcastShapes(in[0], in[1])
}
func equalFn(a, b float32) float32 {
	if a == b {
		return 1
	}
	return 0
}

func (equalOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.PointwiseInto(ctx.Pool, out, tensor.ScalarFn{Bin: equalFn}, in...)
}

// Equal returns the 0/1 mask of a == b (no gradient).
func Equal(a, b *graph.Node) *graph.Node { return a.Graph().MustApply(equalOp{}, a, b) }

// ---- unary elementwise ops (class C) ----

type unKind int

const (
	unNeg unKind = iota
	unExp
	unLog
	unSqrt
	unSquare
	unTanh
	unSigmoid
	unRelu
)

var unNames = [...]string{"Neg", "Exp", "Log", "Sqrt", "Square", "Tanh", "Sigmoid", "Relu"}

type unOp struct{ kind unKind }

func (o unOp) Name() string         { return unNames[o.kind] }
func (o unOp) Class() graph.OpClass { return graph.ClassElementwise }

func (o unOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs(o.Name(), in, 1); err != nil {
		return nil, err
	}
	return copyShape(in[0]), nil
}

func (o unOp) fn() func(x float32) float32 {
	switch o.kind {
	case unNeg:
		return func(x float32) float32 { return -x }
	case unExp:
		return func(x float32) float32 { return float32(math.Exp(float64(x))) }
	case unLog:
		return func(x float32) float32 { return float32(math.Log(float64(x))) }
	case unSqrt:
		return func(x float32) float32 { return float32(math.Sqrt(float64(x))) }
	case unSquare:
		return func(x float32) float32 { return x * x }
	case unTanh:
		return func(x float32) float32 { return float32(math.Tanh(float64(x))) }
	case unSigmoid:
		return func(x float32) float32 { return float32(1 / (1 + math.Exp(-float64(x)))) }
	case unRelu:
		return func(x float32) float32 {
			if x > 0 {
				return x
			}
			return 0
		}
	}
	panic("ops: unhandled unary kind")
}

func (o unOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.PointwiseInto(ctx.Pool, out, o.Pointwise(), in...)
}

// Pointwise implements graph.Pointwise.
func (o unOp) Pointwise() tensor.ScalarFn { return tensor.ScalarFn{Un: o.fn()} }

func (o unOp) Cost(in [][]int, out []int) (int64, int64) {
	return int64(tensor.SizeOf(out)), defaultBytes(in, out)
}

func (o unOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	x := n.Inputs()[0]
	switch o.kind {
	case unNeg:
		return []*graph.Node{Neg(grad)}, nil
	case unExp:
		return []*graph.Node{Mul(grad, n)}, nil
	case unLog:
		return []*graph.Node{Div(grad, x)}, nil
	case unSqrt:
		half := ScalarConst(g, 0.5)
		return []*graph.Node{Div(Mul(grad, half), n)}, nil
	case unSquare:
		two := ScalarConst(g, 2)
		return []*graph.Node{Mul(grad, Mul(x, two))}, nil
	case unTanh:
		one := ScalarConst(g, 1)
		return []*graph.Node{Mul(grad, Sub(one, Mul(n, n)))}, nil
	case unSigmoid:
		one := ScalarConst(g, 1)
		return []*graph.Node{Mul(grad, Mul(n, Sub(one, n)))}, nil
	case unRelu:
		return []*graph.Node{g.MustApply(reluGradOp{}, grad, x)}, nil
	}
	return nil, fmt.Errorf("unreachable unary kind")
}

// Neg returns -x.
func Neg(x *graph.Node) *graph.Node { return x.Graph().MustApply(unOp{unNeg}, x) }

// Exp returns eˣ.
func Exp(x *graph.Node) *graph.Node { return x.Graph().MustApply(unOp{unExp}, x) }

// Log returns ln x.
func Log(x *graph.Node) *graph.Node { return x.Graph().MustApply(unOp{unLog}, x) }

// Sqrt returns √x.
func Sqrt(x *graph.Node) *graph.Node { return x.Graph().MustApply(unOp{unSqrt}, x) }

// Square returns x².
func Square(x *graph.Node) *graph.Node { return x.Graph().MustApply(unOp{unSquare}, x) }

// Tanh returns tanh x.
func Tanh(x *graph.Node) *graph.Node { return x.Graph().MustApply(unOp{unTanh}, x) }

// Sigmoid returns 1/(1+e⁻ˣ).
func Sigmoid(x *graph.Node) *graph.Node { return x.Graph().MustApply(unOp{unSigmoid}, x) }

// Relu returns max(x, 0).
func Relu(x *graph.Node) *graph.Node { return x.Graph().MustApply(unOp{unRelu}, x) }

// ClippedRelu returns min(max(x,0), cap) — Deep Speech's activation.
func ClippedRelu(x *graph.Node, clipCap float32) *graph.Node {
	return Minimum(Relu(x), ScalarConst(x.Graph(), clipCap))
}

// reluGradOp routes grad where x > 0 (TensorFlow's ReluGrad).
type reluGradOp struct{}

func (reluGradOp) Name() string         { return "ReluGrad" }
func (reluGradOp) Class() graph.OpClass { return graph.ClassElementwise }
func (reluGradOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("ReluGrad", in, 2); err != nil {
		return nil, err
	}
	if !tensor.SameShape(in[0], in[1]) {
		return nil, fmt.Errorf("ReluGrad shapes %v vs %v", in[0], in[1])
	}
	return copyShape(in[0]), nil
}
func reluGradFn(gv, xv float32) float32 {
	if xv > 0 {
		return gv
	}
	return 0
}

func (reluGradOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.PointwiseInto(ctx.Pool, out, tensor.ScalarFn{Bin: reluGradFn}, in...)
}

// ---- Pow with constant exponent (class C) ----

type powOp struct{ e float32 }

func (powOp) Name() string         { return "Pow" }
func (powOp) Class() graph.OpClass { return graph.ClassElementwise }
func (o powOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("Pow", in, 1); err != nil {
		return nil, err
	}
	return copyShape(in[0]), nil
}
func (o powOp) fn() func(x float32) float32 {
	e := float64(o.e)
	return func(x float32) float32 {
		return float32(math.Pow(float64(x), e))
	}
}

func (o powOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.PointwiseInto(ctx.Pool, out, tensor.ScalarFn{Un: o.fn()}, in...)
}
func (o powOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	x := n.Inputs()[0]
	e := ScalarConst(g, o.e)
	xp := g.MustApply(powOp{o.e - 1}, x)
	return []*graph.Node{Mul(grad, Mul(e, xp))}, nil
}

// Pow returns x^e for a constant exponent e.
func Pow(x *graph.Node, e float32) *graph.Node { return x.Graph().MustApply(powOp{e}, x) }

// ---- Huber (class C): 0.5x² for |x|<=δ else δ(|x|-δ/2) ----

type huberOp struct{ delta float32 }

func (huberOp) Name() string         { return "Huber" }
func (huberOp) Class() graph.OpClass { return graph.ClassElementwise }
func (o huberOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("Huber", in, 1); err != nil {
		return nil, err
	}
	return copyShape(in[0]), nil
}
func (o huberOp) fn() func(x float32) float32 {
	d := o.delta
	return func(x float32) float32 {
		a := x
		if a < 0 {
			a = -a
		}
		if a <= d {
			return 0.5 * x * x
		}
		return d * (a - 0.5*d)
	}
}

func (o huberOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.PointwiseInto(ctx.Pool, out, tensor.ScalarFn{Un: o.fn()}, in...)
}
func (o huberOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	// d/dx Huber = clamp(x, -δ, δ): the DQN error-clipping trick.
	x := n.Inputs()[0]
	clipped := Maximum(Minimum(x, ScalarConst(g, o.delta)), ScalarConst(g, -o.delta))
	return []*graph.Node{Mul(grad, clipped)}, nil
}

// Huber returns the elementwise Huber loss with threshold delta.
func Huber(x *graph.Node, delta float32) *graph.Node {
	return x.Graph().MustApply(huberOp{delta}, x)
}
