// Package ops implements the primitive operation library of the Fathom
// reproduction: the analogue of TensorFlow's kernel set. Every op
// implements graph.Op; differentiable ops implement graph.GradOp and
// build their gradients as further primitive operations, so backward
// passes are profiled at the same granularity as forward passes.
//
// For each operation the package exposes a builder function (ops.Add,
// ops.MatMul, ...) that panics on shape errors — model construction
// bugs are programming errors, mirroring how TensorFlow's Python front
// end raises immediately at graph-build time.
package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// kernelOp is an op another op can wrap and run: graph.Op plus the
// kernel method (see graph.Op for its contract).
type kernelOp interface {
	graph.Op
	ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error
}

func copyShape(s []int) []int { return append([]int(nil), s...) }

func wantInputs(name string, in [][]int, n int) error {
	if len(in) != n {
		return fmt.Errorf("%s expects %d inputs, got %d", name, n, len(in))
	}
	return nil
}

// ScalarConst adds a scalar constant node.
func ScalarConst(g *graph.Graph, v float32) *graph.Node {
	return g.Const(fmt.Sprintf("const_%g", v), tensor.Scalar(v))
}

// elemBytes is the storage size of one element.
const elemBytes = 4

func defaultBytes(in [][]int, out []int) int64 {
	var b int64
	for _, s := range in {
		b += int64(tensor.SizeOf(s))
	}
	b += int64(tensor.SizeOf(out))
	return b * elemBytes
}
