package graph

import (
	"fmt"
	"sort"

	"repro/internal/tensor"
)

// addN is the gradient-accumulation op emitted when a node has several
// consumers. It lives in this package so the autodiff machinery has no
// dependency on the main operation library.
type addN struct{}

func (addN) Name() string   { return "AddN" }
func (addN) Class() OpClass { return ClassElementwise }

func (addN) InferShape(in [][]int) ([]int, error) {
	if len(in) < 2 {
		return nil, fmt.Errorf("AddN requires at least two inputs")
	}
	for _, s := range in[1:] {
		if !tensor.SameShape(s, in[0]) {
			return nil, fmt.Errorf("AddN shape mismatch: %v vs %v", in[0], s)
		}
	}
	return append([]int(nil), in[0]...), nil
}

// ForwardInto sums left to right, ((in0 + in1) + in2) + …: Add's left
// fold on the block evaluator. The float32 chain per element is fixed by
// input order, never by how the elements are chunked, so the sum keeps
// its bits at every width, and fused or not.
func (o addN) ForwardInto(ctx *ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.PointwiseInto(ctx.Pool, out, o.Pointwise(), in...)
}

// Pointwise implements Pointwise: Add over n operands is their left fold.
func (addN) Pointwise() tensor.ScalarFn { return tensor.ScalarFn{Op: tensor.Add} }

func (addN) Cost(in [][]int, out []int) (int64, int64) {
	n := int64(tensor.SizeOf(out))
	return n * int64(len(in)-1), 4 * n * int64(len(in)+1)
}

// Grad of AddN distributes the upstream gradient to every input.
func (a addN) Grad(g *Graph, n *Node, grad *Node) ([]*Node, error) {
	out := make([]*Node, len(n.inputs))
	for i := range out {
		out[i] = grad
	}
	return out, nil
}

// AddNNodes sums same-shaped nodes, collapsing the one-input case.
func AddNNodes(g *Graph, ns []*Node) (*Node, error) {
	if len(ns) == 1 {
		return ns[0], nil
	}
	return g.Apply(addN{}, ns...)
}

// ZeroPadGradOp is implemented by zero-padding operations (the
// gradients of slices). When every gradient contribution to a node is
// such a pad and the pads form an exact partition along one axis, the
// autodiff engine assembles them with a single concatenation instead
// of summing full-size padded tensors — the optimization TensorFlow
// applies to split/unstack gradients, which turns the O(T²) gradient
// of a T-way sliced tensor (unrolled RNNs) back into O(T).
type ZeroPadGradOp interface {
	Op
	// PadAmounts returns the leading and trailing zero counts per axis.
	PadAmounts() (before, after []int)
}

// concatAssembler is installed by the operation library (it owns the
// Concat op). It must concatenate pieces along axis.
var concatAssembler func(g *Graph, axis int, pieces []*Node) (*Node, error)

// RegisterConcatAssembler installs the partition-assembly hook.
func RegisterConcatAssembler(fn func(g *Graph, axis int, pieces []*Node) (*Node, error)) {
	concatAssembler = fn
}

// assemblePartition returns a Concat of the pad pieces when the
// contributions exactly partition the target shape along one axis,
// or nil when the pattern does not apply.
func assemblePartition(g *Graph, target []int, contribs []*Node) *Node {
	if concatAssembler == nil || len(contribs) < 2 {
		return nil
	}
	type piece struct {
		start int
		node  *Node
	}
	axis := -1
	pieces := make([]piece, 0, len(contribs))
	for _, c := range contribs {
		if c.kind != KindOp {
			return nil
		}
		pad, ok := c.op.(ZeroPadGradOp)
		if !ok || len(c.inputs) != 1 {
			return nil
		}
		before, after := pad.PadAmounts()
		if len(before) != len(target) {
			return nil
		}
		// Exactly one padded axis, shared by all pieces.
		pa := -1
		for i := range before {
			if before[i] != 0 || after[i] != 0 {
				if pa != -1 {
					return nil // padding on two axes
				}
				pa = i
			}
		}
		if pa == -1 {
			return nil // a full-size pad: not a partition piece
		}
		if axis == -1 {
			axis = pa
		} else if axis != pa {
			return nil
		}
		pieces = append(pieces, piece{start: before[pa], node: c.inputs[0]})
	}
	sort.Slice(pieces, func(i, j int) bool { return pieces[i].start < pieces[j].start })
	// Verify the pieces tile [0, target[axis]) exactly.
	off := 0
	for _, p := range pieces {
		if p.start != off {
			return nil
		}
		off += p.node.shape[axis]
	}
	if off != target[axis] {
		return nil
	}
	ns := make([]*Node, len(pieces))
	for i, p := range pieces {
		ns[i] = p.node
	}
	out, err := concatAssembler(g, axis, ns)
	if err != nil {
		return nil
	}
	return out
}

// Gradients builds the symbolic backward graph of a scalar loss with
// respect to wrt, returning one gradient node per entry (nil when no
// gradient path exists). New nodes are appended to the loss's graph;
// they are ordinary operations and appear in execution profiles.
func Gradients(loss *Node, wrt []*Node) ([]*Node, error) {
	g := loss.g
	if tensor.SizeOf(loss.shape) != 1 {
		return nil, fmt.Errorf("graph: Gradients requires a scalar loss, got shape %v", loss.shape)
	}
	order := Topo([]*Node{loss})
	inSub := map[*Node]bool{}
	for _, n := range order {
		inSub[n] = true
	}
	// needsGrad: nodes on a path from some wrt target to the loss.
	needs := map[*Node]bool{}
	for _, w := range wrt {
		if w != nil && inSub[w] {
			needs[w] = true
		}
	}
	for _, n := range order { // topological: inputs come first
		if needs[n] {
			continue
		}
		for _, in := range n.inputs {
			if needs[in] {
				needs[n] = true
				break
			}
		}
	}
	if !needs[loss] {
		// No wrt target reaches the loss: all gradients are nil.
		return make([]*Node, len(wrt)), nil
	}

	// Accumulated gradient contributions per node.
	contrib := map[*Node][]*Node{}
	seed := g.Const("grad_seed", tensor.Ones(loss.shape...))
	contrib[loss] = []*Node{seed}

	gradOf := func(n *Node) (*Node, error) {
		cs := contrib[n]
		if len(cs) == 0 {
			return nil, nil
		}
		if asm := assemblePartition(g, n.shape, cs); asm != nil {
			return asm, nil
		}
		return AddNNodes(g, cs)
	}

	// Walk in reverse topological order, propagating gradients.
	gradDone := map[*Node]*Node{}
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if !needs[n] {
			continue
		}
		gn, err := gradOf(n)
		if err != nil {
			return nil, err
		}
		if gn == nil {
			continue
		}
		gradDone[n] = gn
		if n.kind != KindOp {
			continue
		}
		gop, ok := n.op.(GradOp)
		if !ok {
			return nil, fmt.Errorf("graph: op %s is not differentiable", n.op.Name())
		}
		inGrads, err := gop.Grad(g, n, gn)
		if err != nil {
			return nil, fmt.Errorf("graph: grad of %s: %w", n.op.Name(), err)
		}
		if len(inGrads) != len(n.inputs) {
			return nil, fmt.Errorf("graph: grad of %s returned %d gradients for %d inputs", n.op.Name(), len(inGrads), len(n.inputs))
		}
		for j, ig := range inGrads {
			if ig == nil {
				continue
			}
			in := n.inputs[j]
			if !needs[in] {
				continue // gradient not needed below this point
			}
			if !tensor.SameShape(ig.shape, in.shape) {
				return nil, fmt.Errorf("graph: grad of %s input %d has shape %v, want %v", n.op.Name(), j, ig.shape, in.shape)
			}
			contrib[in] = append(contrib[in], ig)
		}
	}

	out := make([]*Node, len(wrt))
	for i, w := range wrt {
		out[i] = gradDone[w]
	}
	return out, nil
}
