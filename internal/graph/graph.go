package graph

import (
	"fmt"

	"repro/internal/tensor"
)

// NodeKind distinguishes the four node varieties of the graph.
type NodeKind int

const (
	// KindOp nodes compute a tensor from their inputs.
	KindOp NodeKind = iota
	// KindPlaceholder nodes are fed externally at Run time.
	KindPlaceholder
	// KindVariable nodes hold mutable model state (weights).
	KindVariable
	// KindConst nodes hold immutable tensors.
	KindConst
)

func (k NodeKind) String() string {
	switch k {
	case KindOp:
		return "Op"
	case KindPlaceholder:
		return "Placeholder"
	case KindVariable:
		return "Variable"
	case KindConst:
		return "Const"
	}
	return "Unknown"
}

// Node is a vertex of the dataflow graph.
type Node struct {
	id     int
	kind   NodeKind
	op     Op
	inputs []*Node
	shape  []int
	name   string
	value  *tensor.Tensor // Const and Variable payload
	g      *Graph
}

// ID returns the node's unique id within its graph.
func (n *Node) ID() int { return n.id }

// Kind returns the node variety.
func (n *Node) Kind() NodeKind { return n.kind }

// Op returns the node's operation (nil unless KindOp).
func (n *Node) Op() Op { return n.op }

// Inputs returns the node's input edges.
func (n *Node) Inputs() []*Node { return n.inputs }

// Shape returns the statically inferred output shape.
func (n *Node) Shape() []int { return n.shape }

// Name returns the diagnostic name.
func (n *Node) Name() string { return n.name }

// Graph returns the owning graph.
func (n *Node) Graph() *Graph { return n.g }

// Value returns the payload of a Const or Variable node.
func (n *Node) Value() *tensor.Tensor { return n.value }

// SetValue copies t into the Variable node's storage (in place, so
// every alias of the variable — including optimized graphs sharing
// it — observes the update). It panics on other kinds or on a shape
// mismatch: variables have fixed shapes.
func (n *Node) SetValue(t *tensor.Tensor) {
	if n.kind != KindVariable {
		panic(fmt.Sprintf("graph: SetValue on %v node %q", n.kind, n.name))
	}
	if !tensor.SameShape(t.Shape(), n.shape) {
		panic(fmt.Sprintf("graph: SetValue shape %v does not match variable %q shape %v", t.Shape(), n.name, n.shape))
	}
	copy(n.value.Data(), t.Data())
}

// ShareValue points the Variable node at src's storage, so the two
// variables are one tensor from then on: an update through either is
// seen by both. graph.Optimize shares variables the same way; this is
// for two graphs built separately with the same parameters (a workload
// built at two batch sizes). It panics unless both are variables of
// one shape.
func (n *Node) ShareValue(src *Node) {
	if n.kind != KindVariable || src.kind != KindVariable {
		panic(fmt.Sprintf("graph: ShareValue from %v node %q to %v node %q", src.kind, src.name, n.kind, n.name))
	}
	if !tensor.SameShape(src.shape, n.shape) {
		panic(fmt.Sprintf("graph: ShareValue shape %v does not match variable %q shape %v", src.shape, n.name, n.shape))
	}
	n.value = src.value
}

// OpName returns the profile name of the node: the op type for op
// nodes, the kind otherwise.
func (n *Node) OpName() string {
	if n.op != nil {
		return n.op.Name()
	}
	return n.kind.String()
}

func (n *Node) String() string {
	return fmt.Sprintf("%s#%d(%s)%s", n.OpName(), n.id, n.name, tensor.ShapeString(n.shape))
}

// Graph is a dataflow graph under construction or execution.
type Graph struct {
	nodes []*Node
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Nodes returns every node in insertion order.
func (g *Graph) Nodes() []*Node { return g.nodes }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Variables returns every variable node in insertion order.
func (g *Graph) Variables() []*Node {
	var vs []*Node
	for _, n := range g.nodes {
		if n.kind == KindVariable {
			vs = append(vs, n)
		}
	}
	return vs
}

func (g *Graph) add(n *Node) *Node {
	n.id = len(g.nodes)
	n.g = g
	g.nodes = append(g.nodes, n)
	return n
}

// Placeholder declares an externally fed input of a fixed shape.
func (g *Graph) Placeholder(name string, shape ...int) *Node {
	return g.add(&Node{kind: KindPlaceholder, name: name, shape: append([]int(nil), shape...)})
}

// Variable declares mutable state initialized to t.
func (g *Graph) Variable(name string, t *tensor.Tensor) *Node {
	return g.add(&Node{kind: KindVariable, name: name, shape: append([]int(nil), t.Shape()...), value: t})
}

// Const declares an immutable tensor.
func (g *Graph) Const(name string, t *tensor.Tensor) *Node {
	return g.add(&Node{kind: KindConst, name: name, shape: append([]int(nil), t.Shape()...), value: t})
}

// Apply adds an operation node, running static shape inference. The op
// must be a kernel or a view (see Op), and not both.
func (g *Graph) Apply(op Op, inputs ...*Node) (*Node, error) {
	_, isKernel := op.(kernel)
	if _, isView := op.(ViewOp); isKernel == isView {
		return nil, fmt.Errorf("graph: %s must have exactly one of ForwardInto and View", op.Name())
	}
	shapes := make([][]int, len(inputs))
	for i, in := range inputs {
		if in == nil {
			return nil, fmt.Errorf("graph: nil input %d to %s", i, op.Name())
		}
		if in.g != g {
			return nil, fmt.Errorf("graph: input %d to %s belongs to a different graph", i, op.Name())
		}
		shapes[i] = in.shape
	}
	out, err := op.InferShape(shapes)
	if err != nil {
		return nil, fmt.Errorf("graph: %s: %w", op.Name(), err)
	}
	return g.add(&Node{kind: KindOp, op: op, inputs: append([]*Node(nil), inputs...), shape: out, name: op.Name()}), nil
}

// MustApply is Apply for model construction code, where a shape error
// is a programming bug: it panics on error.
func (g *Graph) MustApply(op Op, inputs ...*Node) *Node {
	n, err := g.Apply(op, inputs...)
	if err != nil {
		panic(err)
	}
	return n
}

// Topo returns the transitive dependencies of fetches in topological
// order (inputs before consumers), deduplicated.
func Topo(fetches []*Node) []*Node {
	var order []*Node
	state := map[*Node]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(n *Node)
	visit = func(n *Node) {
		switch state[n] {
		case 2:
			return
		case 1:
			panic("graph: cycle detected") // impossible by construction
		}
		state[n] = 1
		for _, in := range n.inputs {
			visit(in)
		}
		state[n] = 2
		order = append(order, n)
	}
	for _, f := range fetches {
		visit(f)
	}
	return order
}
