package graph

import (
	"fmt"
	"strings"

	"repro/internal/tensor"
)

// This file implements the application-level, compiler-esque graph
// optimizer that Section III of the paper lists as a defining feature
// of production deep-learning frameworks. Passes operate on the
// subgraph feeding a set of fetches and rewrite it into a new Graph:
//
//   - identity elimination: pass-through ops are bypassed;
//   - constant folding: pure ops whose inputs are all constants are
//     evaluated once at optimization time;
//   - common-subexpression elimination: structurally identical pure
//     ops applied to identical inputs are merged;
//   - dead-node sweep: what no fetch reads any more is dropped.
//
// Optimization never folds or merges across Impure operations (random
// sampling, stateful kernels, mutating optimizer updates) — the same
// barriers TensorFlow's optimizer respects.

// IdentityOp marks operations that pass their single input through
// unchanged so the optimizer can bypass them.
type IdentityOp interface {
	Op
	// IsIdentity reports whether the op is a pure pass-through for
	// its current attributes.
	IsIdentity() bool
}

// Impure marks operations that must not be folded or merged: random
// sampling, mode-dependent kernels, and mutating optimizer updates.
type Impure interface {
	Impure()
}

// OptimizeResult reports what the optimizer did.
type OptimizeResult struct {
	Graph *Graph
	// Mapping from original nodes to their rewritten equivalents.
	Mapping map[*Node]*Node
	// Pass statistics.
	IdentitiesElided int
	ConstantsFolded  int
	CSEMerged        int
	FusedAttention   int
}

// Fetch returns the rewritten node for an original fetch.
func (r *OptimizeResult) Fetch(n *Node) *Node { return r.Mapping[n] }

// opFingerprint captures an op's type and attributes. Ops are small
// attribute structs, so the Go-syntax representation is a complete,
// deterministic description of their configuration.
func opFingerprint(op Op) string {
	return fmt.Sprintf("%s|%#v", op.Name(), op)
}

// Optimize rewrites the subgraph feeding fetches into a fresh graph
// with the standard passes applied. ctx is used to evaluate folded
// constants. Variables are shared, not copied: the optimized graph
// reads and updates the same parameters as the original.
func Optimize(ctx *ExecContext, fetches []*Node) (*OptimizeResult, error) {
	if len(fetches) == 0 {
		return nil, fmt.Errorf("graph: Optimize requires fetches")
	}
	src := fetches[0].g
	res := &OptimizeResult{Graph: New(), Mapping: map[*Node]*Node{}}
	ng := res.Graph
	cse := map[string]*Node{}

	var rewrite func(n *Node) (*Node, error)
	rewrite = func(n *Node) (*Node, error) {
		if m, ok := res.Mapping[n]; ok {
			return m, nil
		}
		var nn *Node
		switch n.kind {
		case KindPlaceholder:
			nn = ng.Placeholder(n.name, n.shape...)
		case KindVariable:
			// Share the variable node's storage: updates must be
			// visible through both graphs.
			nn = ng.add(&Node{kind: KindVariable, name: n.name, shape: copyInts(n.shape), value: n.value})
		case KindConst:
			nn = ng.Const(n.name, n.value)
		case KindOp:
			ins := make([]*Node, len(n.inputs))
			allConst := true
			for i, in := range n.inputs {
				r, err := rewrite(in)
				if err != nil {
					return nil, err
				}
				ins[i] = r
				if r.kind != KindConst {
					allConst = false
				}
			}
			_, impure := n.op.(Impure)
			// Pass 1: identity elision.
			if id, ok := n.op.(IdentityOp); ok && id.IsIdentity() && len(ins) == 1 {
				res.IdentitiesElided++
				nn = ins[0]
				break
			}
			// Pass 2: constant folding.
			if allConst && !impure && len(ins) > 0 {
				vals := make([]*tensor.Tensor, len(ins))
				for i, in := range ins {
					vals[i] = in.value
				}
				if folded, err := Forward(ctx, n.op, vals); err == nil {
					res.ConstantsFolded++
					nn = ng.Const("folded/"+n.op.Name(), folded)
					break
				}
				// Folding failure is not fatal: rewrite normally.
			}
			// Pass 3: common-subexpression elimination.
			if !impure {
				var b strings.Builder
				b.WriteString(opFingerprint(n.op))
				for _, in := range ins {
					fmt.Fprintf(&b, "|%d", in.ID())
				}
				key := b.String()
				if prev, hit := cse[key]; hit {
					res.CSEMerged++
					nn = prev
					break
				}
				out, err := ng.Apply(n.op, ins...)
				if err != nil {
					return nil, err
				}
				cse[key] = out
				nn = out
				break
			}
			out, err := ng.Apply(n.op, ins...)
			if err != nil {
				return nil, err
			}
			nn = out
		}
		res.Mapping[n] = nn
		return nn, nil
	}
	for _, f := range fetches {
		if f.g != src {
			return nil, fmt.Errorf("graph: Optimize fetches must share a graph")
		}
		if _, err := rewrite(f); err != nil {
			return nil, err
		}
	}
	// Pass 4: attention fusion on the rewritten graph. The rewrite above
	// deduplicated consumers, so the single-reader gates see accurate
	// counts. In-place, so the Mapping stays valid. Element-wise
	// epilogues are left to the compiled plan (runtime's fuse pass).
	mapped := make([]*Node, 0, len(fetches))
	for _, f := range fetches {
		mapped = append(mapped, res.Mapping[f])
	}
	res.FusedAttention = FuseAttention(ng, mapped...)
	res.sweep(mapped)
	return res, nil
}

// sweep drops the nodes of the optimized graph that no fetch reads —
// the constants a fold consumed, the chains attention fusion replaced —
// so the graph holds, and keeps alive, only what can run. Survivors
// keep their order and are renumbered; mappings to dropped nodes go.
func (res *OptimizeResult) sweep(fetches []*Node) {
	g := res.Graph
	live := make([]bool, len(g.nodes))
	var mark func(n *Node)
	mark = func(n *Node) {
		if !live[n.id] {
			live[n.id] = true
			for _, in := range n.inputs {
				mark(in)
			}
		}
	}
	for _, f := range fetches {
		mark(f)
	}
	for orig, n := range res.Mapping {
		if !live[n.id] {
			delete(res.Mapping, orig)
		}
	}
	kept := g.nodes[:0]
	for _, n := range g.nodes {
		if live[n.id] {
			n.id = len(kept)
			kept = append(kept, n)
		}
	}
	clear(g.nodes[len(kept):])
	g.nodes = kept
}

func copyInts(s []int) []int { return append([]int(nil), s...) }
