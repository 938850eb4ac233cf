package ops

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// ---- fused softmax cross-entropy (class D) ----
//
// CrossEntropy(logits (B,C), labels (B) int-valued) = mean over batch
// of −log softmax(logits)[label]. The gradient is the classic
// (softmax − onehot)/B, emitted as a fused CrossEntropyGrad op.
type crossEntropyOp struct{}

func (crossEntropyOp) Name() string         { return "CrossEntropy" }
func (crossEntropyOp) Class() graph.OpClass { return graph.ClassReduction }
func (crossEntropyOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("CrossEntropy", in, 2); err != nil {
		return nil, err
	}
	if len(in[0]) != 2 || len(in[1]) != 1 || in[0][0] != in[1][0] {
		return nil, fmt.Errorf("CrossEntropy wants logits (B,C) and labels (B), got %v %v", in[0], in[1])
	}
	return []int{}, nil
}
func (crossEntropyOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	logits, labels := in[0], in[1]
	b, c := logits.Shape()[0], logits.Shape()[1]
	ld := logits.Data()
	var total float64
	for r := 0; r < b; r++ {
		row := ld[r*c : (r+1)*c]
		m := row[0]
		for _, v := range row {
			if v > m {
				m = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - m))
		}
		lbl := int(labels.Data()[r])
		if lbl < 0 || lbl >= c {
			return fmt.Errorf("CrossEntropy label %d out of range [0,%d)", lbl, c)
		}
		total += math.Log(sum) - float64(row[lbl]-m)
	}
	out.Data()[0] = float32(total / float64(b))
	return nil
}
func (crossEntropyOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	logits, labels := n.Inputs()[0], n.Inputs()[1]
	gl := g.MustApply(crossEntropyGradOp{}, logits, labels, grad)
	return []*graph.Node{gl, nil}, nil
}

type crossEntropyGradOp struct{}

func (crossEntropyGradOp) Name() string         { return "CrossEntropyGrad" }
func (crossEntropyGradOp) Class() graph.OpClass { return graph.ClassReduction }
func (crossEntropyGradOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("CrossEntropyGrad", in, 3); err != nil {
		return nil, err
	}
	return copyShape(in[0]), nil
}
func (crossEntropyGradOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	logits, labels, grad := in[0], in[1], in[2]
	b, c := logits.Shape()[0], logits.Shape()[1]
	gscale := grad.Data()[0] / float32(b)
	if err := tensor.SoftmaxInto(ctx.Pool, out, logits); err != nil {
		return err
	}
	od := out.Data()
	for r := 0; r < b; r++ {
		od[r*c+int(labels.Data()[r])] -= 1
	}
	for i := range od {
		od[i] *= gscale
	}
	return nil
}

// CrossEntropy returns the mean softmax cross-entropy of logits (B,C)
// against integer labels (B). No gradient flows to labels.
func CrossEntropy(logits, labels *graph.Node) *graph.Node {
	return logits.Graph().MustApply(crossEntropyOp{}, logits, labels)
}

// ---- fused sigmoid cross-entropy (class D) ----
//
// SigmoidCrossEntropy(logits, targets) = mean over batch (axis 0) of
// the summed elementwise BCE: Σ max(x,0) − x·t + log(1+e^{−|x|}).
type sigmoidCrossEntropyOp struct{}

func (sigmoidCrossEntropyOp) Name() string         { return "SigmoidCrossEntropy" }
func (sigmoidCrossEntropyOp) Class() graph.OpClass { return graph.ClassReduction }
func (sigmoidCrossEntropyOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("SigmoidCrossEntropy", in, 2); err != nil {
		return nil, err
	}
	if !tensor.SameShape(in[0], in[1]) || len(in[0]) < 1 {
		return nil, fmt.Errorf("SigmoidCrossEntropy wants same-shaped logits/targets, got %v %v", in[0], in[1])
	}
	return []int{}, nil
}
func (sigmoidCrossEntropyOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	x, t := in[0], in[1]
	b := x.Shape()[0]
	xd, td := x.Data(), t.Data()
	var total float64
	for i := range xd {
		xv, tv := float64(xd[i]), float64(td[i])
		total += math.Max(xv, 0) - xv*tv + math.Log(1+math.Exp(-math.Abs(xv)))
	}
	out.Data()[0] = float32(total / float64(b))
	return nil
}
func (sigmoidCrossEntropyOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	x, t := n.Inputs()[0], n.Inputs()[1]
	gl := g.MustApply(sigmoidCrossEntropyGradOp{}, x, t, grad)
	return []*graph.Node{gl, nil}, nil
}

type sigmoidCrossEntropyGradOp struct{}

func (sigmoidCrossEntropyGradOp) Name() string         { return "SigmoidCrossEntropyGrad" }
func (sigmoidCrossEntropyGradOp) Class() graph.OpClass { return graph.ClassReduction }
func (sigmoidCrossEntropyGradOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("SigmoidCrossEntropyGrad", in, 3); err != nil {
		return nil, err
	}
	return copyShape(in[0]), nil
}
func (sigmoidCrossEntropyGradOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	x, t, grad := in[0], in[1], in[2]
	b := x.Shape()[0]
	gscale := grad.Data()[0] / float32(b)
	xd, td, od := x.Data(), t.Data(), out.Data()
	ctx.Pool.For(len(xd), 8192, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sig := float32(1 / (1 + math.Exp(-float64(xd[i]))))
			od[i] = (sig - td[i]) * gscale
		}
	})
	return nil
}

// SigmoidCrossEntropy returns mean-over-batch of summed elementwise
// binary cross-entropy between logits and targets.
func SigmoidCrossEntropy(logits, targets *graph.Node) *graph.Node {
	return logits.Graph().MustApply(sigmoidCrossEntropyOp{}, logits, targets)
}
