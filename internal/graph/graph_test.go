package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// Minimal test ops: elementwise add and square with symbolic grads.

type testAdd struct{}

func (testAdd) Name() string   { return "Add" }
func (testAdd) Class() OpClass { return ClassElementwise }
func (testAdd) InferShape(in [][]int) ([]int, error) {
	if len(in) != 2 || !tensor.SameShape(in[0], in[1]) {
		return nil, fmt.Errorf("add wants two same-shape inputs")
	}
	return append([]int(nil), in[0]...), nil
}
func (testAdd) ForwardInto(ctx *ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.PointwiseInto(ctx.Pool, out, tensor.ScalarFn{Op: tensor.Add}, in...)
}
func (testAdd) Grad(g *Graph, n *Node, grad *Node) ([]*Node, error) {
	return []*Node{grad, grad}, nil
}

type testSquare struct{}

func (testSquare) Name() string   { return "Square" }
func (testSquare) Class() OpClass { return ClassElementwise }
func (testSquare) InferShape(in [][]int) ([]int, error) {
	return append([]int(nil), in[0]...), nil
}
func (testSquare) ForwardInto(ctx *ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.PointwiseInto(ctx.Pool, out, tensor.ScalarFn{Op: tensor.Square}, in...)
}
func (testSquare) Grad(g *Graph, n *Node, grad *Node) ([]*Node, error) {
	two := g.Const("two", tensor.Scalar(2))
	_ = two
	// d(x²)/dx = 2x: grad * x * 2. Using Add twice keeps test deps minimal:
	gx, err := g.Apply(testMul{}, grad, n.inputs[0])
	if err != nil {
		return nil, err
	}
	gx2, err := g.Apply(testAdd{}, gx, gx)
	if err != nil {
		return nil, err
	}
	return []*Node{gx2}, nil
}

type testMul struct{}

func (testMul) Name() string   { return "Mul" }
func (testMul) Class() OpClass { return ClassElementwise }
func (testMul) InferShape(in [][]int) ([]int, error) {
	return append([]int(nil), in[0]...), nil
}
func (testMul) ForwardInto(ctx *ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.PointwiseInto(ctx.Pool, out, tensor.ScalarFn{Op: tensor.Mul}, in...)
}
func (testMul) Grad(g *Graph, n *Node, grad *Node) ([]*Node, error) {
	ga, err := g.Apply(testMul{}, grad, n.inputs[1])
	if err != nil {
		return nil, err
	}
	gb, err := g.Apply(testMul{}, grad, n.inputs[0])
	if err != nil {
		return nil, err
	}
	return []*Node{ga, gb}, nil
}

type testSum struct{}

func (testSum) Name() string                         { return "Sum" }
func (testSum) Class() OpClass                       { return ClassReduction }
func (testSum) InferShape(in [][]int) ([]int, error) { return []int{}, nil }
func (testSum) ForwardInto(ctx *ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.ReduceInto(ctx.Pool, out, in[0], nil, false, "sum")
}
func (testSum) Grad(g *Graph, n *Node, grad *Node) ([]*Node, error) {
	// Broadcast scalar grad to input shape via Mul with ones.
	ones := g.Const("ones", tensor.Ones(n.inputs[0].shape...))
	gb, err := g.Apply(testBroadcastMul{}, grad, ones)
	if err != nil {
		return nil, err
	}
	return []*Node{gb}, nil
}

type testBroadcastMul struct{}

func (testBroadcastMul) Name() string   { return "Mul" }
func (testBroadcastMul) Class() OpClass { return ClassElementwise }
func (testBroadcastMul) InferShape(in [][]int) ([]int, error) {
	return tensor.BroadcastShapes(in[0], in[1])
}
func (testBroadcastMul) ForwardInto(ctx *ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.PointwiseInto(ctx.Pool, out, tensor.ScalarFn{Op: tensor.Mul}, in...)
}
func (testBroadcastMul) Grad(g *Graph, n *Node, grad *Node) ([]*Node, error) {
	return nil, fmt.Errorf("not needed")
}

func newCtx() *ExecContext {
	return &ExecContext{Pool: tensor.NewPool(1), RNG: rand.New(rand.NewSource(1))}
}

// evalNode executes the subgraph feeding node n (no placeholders).
func evalNode(t *testing.T, n *Node, feeds map[*Node]*tensor.Tensor) *tensor.Tensor {
	t.Helper()
	ctx := newCtx()
	vals := map[*Node]*tensor.Tensor{}
	for _, x := range Topo([]*Node{n}) {
		switch x.kind {
		case KindConst, KindVariable:
			vals[x] = x.value
		case KindPlaceholder:
			v, ok := feeds[x]
			if !ok {
				t.Fatalf("missing feed for %v", x)
			}
			vals[x] = v
		case KindOp:
			ins := make([]*tensor.Tensor, len(x.inputs))
			for i, in := range x.inputs {
				ins[i] = vals[in]
			}
			out, err := Forward(ctx, x.op, ins)
			if err != nil {
				t.Fatalf("forward %v: %v", x, err)
			}
			vals[x] = out
		}
	}
	return vals[n]
}

func TestGraphConstruction(t *testing.T) {
	g := New()
	a := g.Placeholder("a", 2, 2)
	b := g.Variable("w", tensor.Ones(2, 2))
	c, err := g.Apply(testAdd{}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind() != KindOp || c.OpName() != "Add" || !tensor.SameShape(c.Shape(), []int{2, 2}) {
		t.Fatalf("bad op node: %v", c)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("expected 3 nodes, got %d", g.NumNodes())
	}
	if len(g.Variables()) != 1 || g.Variables()[0] != b {
		t.Fatal("Variables() wrong")
	}
	if a.Graph() != g || a.Kind() != KindPlaceholder {
		t.Fatal("placeholder metadata wrong")
	}
}

func TestApplyShapeError(t *testing.T) {
	g := New()
	a := g.Placeholder("a", 2, 2)
	b := g.Placeholder("b", 3, 3)
	if _, err := g.Apply(testAdd{}, a, b); err == nil {
		t.Fatal("expected shape inference error")
	}
}

// testNeither has no ForwardInto and no View; testBoth has both.
type testNeither struct{}

func (testNeither) Name() string   { return "Neither" }
func (testNeither) Class() OpClass { return ClassElementwise }
func (testNeither) InferShape(in [][]int) ([]int, error) {
	return append([]int(nil), in[0]...), nil
}

type testBoth struct{ testSquare }

func (testBoth) View(in []*tensor.Tensor) (*tensor.Tensor, error) { return in[0], nil }

// TestApplyWantsAKernelOrAView: an op is one of the two kinds or it
// does not enter a graph.
func TestApplyWantsAKernelOrAView(t *testing.T) {
	g := New()
	x := g.Placeholder("x", 2)
	for _, op := range []Op{testNeither{}, testBoth{}} {
		if _, err := g.Apply(op, x); err == nil {
			t.Errorf("Apply accepted %T", op)
		}
	}
	if g.NumNodes() != 1 {
		t.Errorf("rejected ops left %d nodes behind", g.NumNodes()-1)
	}
}

func TestApplyCrossGraphError(t *testing.T) {
	g1, g2 := New(), New()
	a := g1.Placeholder("a", 1)
	b := g2.Placeholder("b", 1)
	if _, err := g1.Apply(testAdd{}, a, b); err == nil {
		t.Fatal("expected cross-graph error")
	}
}

func TestApplyNilInputError(t *testing.T) {
	g := New()
	a := g.Placeholder("a", 1)
	if _, err := g.Apply(testAdd{}, a, nil); err == nil {
		t.Fatal("expected nil input error")
	}
}

func TestMustApplyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := New()
	g.MustApply(testAdd{}, g.Placeholder("a", 2), g.Placeholder("b", 3))
}

func TestSetValueChecksKindAndShape(t *testing.T) {
	g := New()
	v := g.Variable("v", tensor.Ones(2))
	v.SetValue(tensor.FromSlice([]float32{5, 6}, 2))
	if v.Value().Data()[0] != 5 {
		t.Fatal("SetValue did not take effect")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected shape panic")
			}
		}()
		v.SetValue(tensor.Ones(3))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected kind panic")
			}
		}()
		g.Const("c", tensor.Ones(1)).SetValue(tensor.Ones(1))
	}()
}

func TestTopoOrder(t *testing.T) {
	g := New()
	a := g.Placeholder("a", 1)
	b := g.MustApply(testSquare{}, a)
	c := g.MustApply(testAdd{}, b, b)
	order := Topo([]*Node{c})
	pos := map[*Node]int{}
	for i, n := range order {
		pos[n] = i
	}
	if !(pos[a] < pos[b] && pos[b] < pos[c]) {
		t.Fatalf("topological order violated: %v", order)
	}
	if len(order) != 3 {
		t.Fatalf("diamond should dedup, got %d nodes", len(order))
	}
}

func TestGradientsSimpleChain(t *testing.T) {
	// loss = sum((x+w)²); dloss/dw = 2(x+w).
	g := New()
	x := g.Placeholder("x", 3)
	w := g.Variable("w", tensor.FromSlice([]float32{1, 2, 3}, 3))
	s := g.MustApply(testAdd{}, x, w)
	sq := g.MustApply(testSquare{}, s)
	loss := g.MustApply(testSum{}, sq)

	grads, err := Gradients(loss, []*Node{w})
	if err != nil {
		t.Fatal(err)
	}
	if grads[0] == nil {
		t.Fatal("expected gradient for w")
	}
	feeds := map[*Node]*tensor.Tensor{x: tensor.FromSlice([]float32{10, 20, 30}, 3)}
	gv := evalNode(t, grads[0], feeds)
	want := []float32{22, 44, 66} // 2*(x+w)
	for i := range want {
		if gv.Data()[i] != want[i] {
			t.Fatalf("grad = %v want %v", gv.Data(), want)
		}
	}
}

func TestGradientsFanOutUsesAddN(t *testing.T) {
	// loss = sum(w*w + w*w) — w feeds two muls; its gradient must
	// accumulate via AddN.
	g := New()
	w := g.Variable("w", tensor.FromSlice([]float32{3}, 1))
	m1 := g.MustApply(testMul{}, w, w)
	m2 := g.MustApply(testMul{}, w, w)
	s := g.MustApply(testAdd{}, m1, m2)
	loss := g.MustApply(testSum{}, s)
	grads, err := Gradients(loss, []*Node{w})
	if err != nil {
		t.Fatal(err)
	}
	gv := evalNode(t, grads[0], nil)
	if gv.Data()[0] != 12 { // d/dw (2w²) = 4w = 12
		t.Fatalf("fan-out grad = %v want 12", gv.Data())
	}
	// The backward graph must contain an AddN node.
	found := false
	for _, n := range g.Nodes() {
		if n.OpName() == "AddN" {
			found = true
		}
	}
	if !found {
		t.Fatal("expected AddN in backward graph")
	}
}

func TestGradientsNoPathReturnsNil(t *testing.T) {
	g := New()
	w := g.Variable("w", tensor.Ones(1))
	u := g.Variable("u", tensor.Ones(1)) // not connected to loss
	sq := g.MustApply(testSquare{}, w)
	loss := g.MustApply(testSum{}, sq)
	grads, err := Gradients(loss, []*Node{w, u})
	if err != nil {
		t.Fatal(err)
	}
	if grads[0] == nil {
		t.Fatal("w should have a gradient")
	}
	if grads[1] != nil {
		t.Fatal("u has no path to loss; gradient must be nil")
	}
}

func TestGradientsNonScalarLossRejected(t *testing.T) {
	g := New()
	w := g.Variable("w", tensor.Ones(2))
	sq := g.MustApply(testSquare{}, w)
	if _, err := Gradients(sq, []*Node{w}); err == nil {
		t.Fatal("expected scalar-loss error")
	}
}

func TestAddNForwardAndShape(t *testing.T) {
	g := New()
	a := g.Const("a", tensor.FromSlice([]float32{1, 2}, 2))
	b := g.Const("b", tensor.FromSlice([]float32{10, 20}, 2))
	c := g.Const("c", tensor.FromSlice([]float32{100, 200}, 2))
	n, err := AddNNodes(g, []*Node{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	v := evalNode(t, n, nil)
	if v.Data()[0] != 111 || v.Data()[1] != 222 {
		t.Fatalf("AddN = %v", v.Data())
	}
	// One-element case collapses to the node itself.
	same, err := AddNNodes(g, []*Node{a})
	if err != nil || same != a {
		t.Fatal("single-input AddN should collapse")
	}
	// Mismatched shapes rejected.
	d := g.Const("d", tensor.Ones(3))
	if _, err := AddNNodes(g, []*Node{a, d}); err == nil {
		t.Fatal("expected AddN shape error")
	}
}

func TestOpClassNames(t *testing.T) {
	if ClassMatrix.Letter() != "A" || ClassDataMovement.Letter() != "G" {
		t.Fatal("class letters wrong")
	}
	if ClassConv.String() != "Convolution" {
		t.Fatal("class name wrong")
	}
	if OpClass(99).String() != "Unknown" || OpClass(99).Letter() != "?" {
		t.Fatal("out-of-range class should be unknown")
	}
	if NumClasses != 7 {
		t.Fatal("the paper defines seven op classes")
	}
}
