package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// ---- element-wise ops (class C) ----

// pointwiseNames names each element-wise op by its opcode.
var pointwiseNames = [...]string{
	tensor.Neg: "Neg", tensor.Exp: "Exp", tensor.Log: "Log", tensor.Sqrt: "Sqrt", tensor.Square: "Square",
	tensor.Tanh: "Tanh", tensor.Sigmoid: "Sigmoid", tensor.Relu: "Relu", tensor.Pow: "Pow", tensor.Huber: "Huber",
	tensor.Add: "Add", tensor.Sub: "Sub", tensor.Mul: "Mul", tensor.Div: "Div", tensor.Maximum: "Maximum",
	tensor.Minimum: "Minimum", tensor.LessEqual: "LessEqual", tensor.Equal: "Equal", tensor.ReluGrad: "ReluGrad",
}

// pointwiseOp is every element-wise op: its scalar function, which
// tensor owns, over one operand or two broadcast to a common shape. The
// op adds a name, a shape and a gradient.
type pointwiseOp struct{ fn tensor.ScalarFn }

func (o pointwiseOp) Name() string         { return pointwiseNames[o.fn.Op] }
func (o pointwiseOp) Class() graph.OpClass { return graph.ClassElementwise }

func (o pointwiseOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs(o.Name(), in, o.fn.Arity()); err != nil {
		return nil, err
	}
	if len(in) == 1 {
		return copyShape(in[0]), nil
	}
	return tensor.BroadcastShapes(in[0], in[1])
}

func (o pointwiseOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.PointwiseInto(ctx.Pool, out, o.fn, in...)
}

// Pointwise implements graph.Pointwise.
func (o pointwiseOp) Pointwise() tensor.ScalarFn { return o.fn }

func (o pointwiseOp) Cost(in [][]int, out []int) (int64, int64) {
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

func (o pointwiseOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	x := n.Inputs()[0]
	switch o.fn.Op {
	case tensor.Neg:
		return []*graph.Node{Neg(grad)}, nil
	case tensor.Exp:
		return []*graph.Node{Mul(grad, n)}, nil
	case tensor.Log:
		return []*graph.Node{Div(grad, x)}, nil
	case tensor.Sqrt:
		half := ScalarConst(g, 0.5)
		return []*graph.Node{Div(Mul(grad, half), n)}, nil
	case tensor.Square:
		two := ScalarConst(g, 2)
		return []*graph.Node{Mul(grad, Mul(x, two))}, nil
	case tensor.Tanh:
		one := ScalarConst(g, 1)
		return []*graph.Node{Mul(grad, Sub(one, Mul(n, n)))}, nil
	case tensor.Sigmoid:
		one := ScalarConst(g, 1)
		return []*graph.Node{Mul(grad, Mul(n, Sub(one, n)))}, nil
	case tensor.Relu:
		// The output routes like the input — y > 0 exactly where x > 0, NaN
		// and −0 included — and reading it leaves x one reader, so a
		// GEMM's bias add and relu fuse in training plans too.
		return []*graph.Node{pointwise(tensor.ReluGrad, grad, n)}, nil
	case tensor.Pow:
		e := ScalarConst(g, o.fn.C)
		xp := Pow(x, o.fn.C-1)
		return []*graph.Node{Mul(grad, Mul(e, xp))}, nil
	case tensor.Huber:
		// d/dx Huber = clamp(x, -δ, δ): the DQN error-clipping trick.
		clipped := Maximum(Minimum(x, ScalarConst(g, o.fn.C)), ScalarConst(g, -o.fn.C))
		return []*graph.Node{Mul(grad, clipped)}, nil
	}
	a, b := x, n.Inputs()[1]
	switch o.fn.Op {
	case tensor.Add:
		return []*graph.Node{sumToShape(g, grad, a.Shape()), sumToShape(g, grad, b.Shape())}, nil
	case tensor.Sub:
		return []*graph.Node{sumToShape(g, grad, a.Shape()), sumToShape(g, Neg(grad), b.Shape())}, nil
	case tensor.Mul:
		return []*graph.Node{
			sumToShape(g, Mul(grad, b), a.Shape()),
			sumToShape(g, Mul(grad, a), b.Shape()),
		}, nil
	case tensor.Div:
		ga := Div(grad, b)
		gb := Neg(Mul(grad, Div(n, b))) // -grad·(a/b)/b
		return []*graph.Node{sumToShape(g, ga, a.Shape()), sumToShape(g, gb, b.Shape())}, nil
	case tensor.Maximum:
		maskA := LessEqual(b, a) // 1 where a wins (ties to a, matching the kernel)
		maskB := Sub(ScalarConst(g, 1), maskA)
		return []*graph.Node{
			sumToShape(g, Mul(grad, maskA), a.Shape()),
			sumToShape(g, Mul(grad, maskB), b.Shape()),
		}, nil
	case tensor.Minimum:
		maskA := LessEqual(a, b)
		maskB := Sub(ScalarConst(g, 1), maskA)
		return []*graph.Node{
			sumToShape(g, Mul(grad, maskA), a.Shape()),
			sumToShape(g, Mul(grad, maskB), b.Shape()),
		}, nil
	}
	return nil, fmt.Errorf("%s is not differentiable", o.Name())
}

// pointwise applies the element-wise op of opcode op to its operands.
func pointwise(op tensor.Opcode, in ...*graph.Node) *graph.Node {
	return in[0].Graph().MustApply(pointwiseOp{tensor.ScalarFn{Op: op}}, in...)
}

// Add returns a+b with broadcasting.
func Add(a, b *graph.Node) *graph.Node { return pointwise(tensor.Add, a, b) }

// Sub returns a-b with broadcasting.
func Sub(a, b *graph.Node) *graph.Node { return pointwise(tensor.Sub, a, b) }

// Mul returns a*b with broadcasting.
func Mul(a, b *graph.Node) *graph.Node { return pointwise(tensor.Mul, a, b) }

// Div returns a/b with broadcasting.
func Div(a, b *graph.Node) *graph.Node { return pointwise(tensor.Div, a, b) }

// Maximum returns max(a,b) with broadcasting.
func Maximum(a, b *graph.Node) *graph.Node { return pointwise(tensor.Maximum, a, b) }

// Minimum returns min(a,b) with broadcasting.
func Minimum(a, b *graph.Node) *graph.Node { return pointwise(tensor.Minimum, a, b) }

// LessEqual returns the 0/1 mask of a <= b (no gradient).
func LessEqual(a, b *graph.Node) *graph.Node { return pointwise(tensor.LessEqual, a, b) }

// Equal returns the 0/1 mask of a == b (no gradient).
func Equal(a, b *graph.Node) *graph.Node { return pointwise(tensor.Equal, a, b) }

// Neg returns -x.
func Neg(x *graph.Node) *graph.Node { return pointwise(tensor.Neg, x) }

// Exp returns eˣ.
func Exp(x *graph.Node) *graph.Node { return pointwise(tensor.Exp, x) }

// Log returns ln x.
func Log(x *graph.Node) *graph.Node { return pointwise(tensor.Log, x) }

// Sqrt returns √x.
func Sqrt(x *graph.Node) *graph.Node { return pointwise(tensor.Sqrt, x) }

// Square returns x².
func Square(x *graph.Node) *graph.Node { return pointwise(tensor.Square, x) }

// Tanh returns tanh x.
func Tanh(x *graph.Node) *graph.Node { return pointwise(tensor.Tanh, x) }

// Sigmoid returns 1/(1+e⁻ˣ).
func Sigmoid(x *graph.Node) *graph.Node { return pointwise(tensor.Sigmoid, x) }

// Relu returns max(x, 0).
func Relu(x *graph.Node) *graph.Node { return pointwise(tensor.Relu, x) }

// ClippedRelu returns min(max(x,0), cap) — Deep Speech's activation.
func ClippedRelu(x *graph.Node, clipCap float32) *graph.Node {
	return Minimum(Relu(x), ScalarConst(x.Graph(), clipCap))
}

// Pow returns x^e for a constant exponent e.
func Pow(x *graph.Node, e float32) *graph.Node {
	return x.Graph().MustApply(pointwiseOp{tensor.ScalarFn{Op: tensor.Pow, C: e}}, x)
}

// Huber returns the elementwise Huber loss with threshold delta: 0.5x²
// for |x| <= delta, else delta(|x| - delta/2).
func Huber(x *graph.Node, delta float32) *graph.Node {
	return x.Graph().MustApply(pointwiseOp{tensor.ScalarFn{Op: tensor.Huber, C: delta}}, x)
}
