package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// ---- Conv2D and gradients (class B) ----

type conv2DOp struct{ spec tensor.ConvSpec }

func (conv2DOp) Name() string         { return "Conv2D" }
func (conv2DOp) Class() graph.OpClass { return graph.ClassConv }

func (o conv2DOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("Conv2D", in, 2); err != nil {
		return nil, err
	}
	x, f := in[0], in[1]
	if len(x) != 4 || len(f) != 4 {
		return nil, fmt.Errorf("Conv2D wants NHWC input and KHKWCinCout filter, got %v %v", x, f)
	}
	if x[3] != f[2] {
		return nil, fmt.Errorf("Conv2D channels: input %v filter %v", x, f)
	}
	oh := tensor.ConvOutSize(x[1], f[0], o.spec.StrideH, o.spec.PadH)
	ow := tensor.ConvOutSize(x[2], f[1], o.spec.StrideW, o.spec.PadW)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("Conv2D produces empty output for %v with filter %v", x, f)
	}
	return []int{x[0], oh, ow, f[3]}, nil
}

func (o conv2DOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.Conv2DInto(ctx.Pool, out, in[0], in[1], o.spec)
}

func convFlops(x, f, out []int) int64 {
	// 2 × output cells × filter window × input channels.
	cells := int64(out[0]) * int64(out[1]) * int64(out[2]) * int64(out[3])
	return 2 * cells * int64(f[0]) * int64(f[1]) * int64(f[2])
}

func (o conv2DOp) Cost(in [][]int, out []int) (int64, int64) {
	return convFlops(in[0], in[1], out), defaultBytes(in, out)
}

func (o conv2DOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	x, f := n.Inputs()[0], n.Inputs()[1]
	gi := g.MustApply(conv2DBackInputOp{spec: o.spec, h: x.Shape()[1], w: x.Shape()[2]}, f, grad)
	gf := g.MustApply(conv2DBackFilterOp{spec: o.spec, kh: f.Shape()[0], kw: f.Shape()[1]}, x, grad)
	return []*graph.Node{gi, gf}, nil
}

// Conv2D convolves NHWC input x with filter f.
func Conv2D(x, f *graph.Node, strideH, strideW, padH, padW int) *graph.Node {
	return x.Graph().MustApply(conv2DOp{spec: tensor.ConvSpec{
		StrideH: strideH, StrideW: strideW, PadH: padH, PadW: padW,
	}}, x, f)
}

type conv2DBackFilterOp struct {
	spec   tensor.ConvSpec
	kh, kw int
}

func (conv2DBackFilterOp) Name() string         { return "Conv2DBackFilter" }
func (conv2DBackFilterOp) Class() graph.OpClass { return graph.ClassConv }
func (o conv2DBackFilterOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("Conv2DBackFilter", in, 2); err != nil {
		return nil, err
	}
	return []int{o.kh, o.kw, in[0][3], in[1][3]}, nil
}
func (o conv2DBackFilterOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.Conv2DBackFilterInto(ctx.Pool, out, in[0], in[1], o.kh, o.kw, o.spec)
}
func (o conv2DBackFilterOp) Cost(in [][]int, out []int) (int64, int64) {
	cells := int64(in[1][0]) * int64(in[1][1]) * int64(in[1][2]) * int64(in[1][3])
	return 2 * cells * int64(o.kh) * int64(o.kw) * int64(in[0][3]), defaultBytes(in, out)
}

type conv2DBackInputOp struct {
	spec tensor.ConvSpec
	h, w int
}

func (conv2DBackInputOp) Name() string         { return "Conv2DBackInput" }
func (conv2DBackInputOp) Class() graph.OpClass { return graph.ClassConv }
func (o conv2DBackInputOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("Conv2DBackInput", in, 2); err != nil {
		return nil, err
	}
	return []int{in[1][0], o.h, o.w, in[0][2]}, nil
}
func (o conv2DBackInputOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.Conv2DBackInputInto(ctx.Pool, out, in[0], in[1], o.h, o.w, o.spec)
}
func (o conv2DBackInputOp) Cost(in [][]int, out []int) (int64, int64) {
	cells := int64(in[1][0]) * int64(in[1][1]) * int64(in[1][2]) * int64(in[1][3])
	return 2 * cells * int64(in[0][0]) * int64(in[0][1]) * int64(in[0][2]), defaultBytes(in, out)
}

// ---- Pooling (class B) ----

type maxPoolOp struct{ k, s, pad int }

func (maxPoolOp) Name() string         { return "MaxPool" }
func (maxPoolOp) Class() graph.OpClass { return graph.ClassConv }
func (o maxPoolOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("MaxPool", in, 1); err != nil {
		return nil, err
	}
	if len(in[0]) != 4 {
		return nil, fmt.Errorf("MaxPool wants NHWC, got %v", in[0])
	}
	oh := tensor.ConvOutSize(in[0][1], o.k, o.s, o.pad)
	ow := tensor.ConvOutSize(in[0][2], o.k, o.s, o.pad)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("MaxPool empty output for %v", in[0])
	}
	return []int{in[0][0], oh, ow, in[0][3]}, nil
}
func (o maxPoolOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.MaxPoolInto(ctx.Pool, out, in[0], o.k, o.s, o.pad)
}
func (o maxPoolOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	return []*graph.Node{g.MustApply(maxPoolGradOp{o.k, o.s, o.pad}, n.Inputs()[0], grad)}, nil
}

type maxPoolGradOp struct{ k, s, pad int }

func (maxPoolGradOp) Name() string         { return "MaxPoolGrad" }
func (maxPoolGradOp) Class() graph.OpClass { return graph.ClassConv }
func (o maxPoolGradOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("MaxPoolGrad", in, 2); err != nil {
		return nil, err
	}
	return copyShape(in[0]), nil
}
func (o maxPoolGradOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.MaxPoolGradInto(ctx.Pool, out, in[0], in[1], o.k, o.s, o.pad)
}

// MaxPool applies k×k max pooling with stride s and padding pad.
func MaxPool(x *graph.Node, k, s, pad int) *graph.Node {
	return x.Graph().MustApply(maxPoolOp{k, s, pad}, x)
}

type avgPoolOp struct{ k, s, pad int }

func (avgPoolOp) Name() string         { return "AvgPool" }
func (avgPoolOp) Class() graph.OpClass { return graph.ClassConv }
func (o avgPoolOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("AvgPool", in, 1); err != nil {
		return nil, err
	}
	if len(in[0]) != 4 {
		return nil, fmt.Errorf("AvgPool wants NHWC, got %v", in[0])
	}
	oh := tensor.ConvOutSize(in[0][1], o.k, o.s, o.pad)
	ow := tensor.ConvOutSize(in[0][2], o.k, o.s, o.pad)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("AvgPool empty output for %v", in[0])
	}
	return []int{in[0][0], oh, ow, in[0][3]}, nil
}
func (o avgPoolOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.AvgPoolInto(ctx.Pool, out, in[0], o.k, o.s, o.pad)
}
func (o avgPoolOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	return []*graph.Node{g.MustApply(avgPoolGradOp{o.k, o.s, o.pad, copyShape(n.Inputs()[0].Shape())}, grad)}, nil
}

type avgPoolGradOp struct {
	k, s, pad int
	inShape   []int
}

func (avgPoolGradOp) Name() string         { return "AvgPoolGrad" }
func (avgPoolGradOp) Class() graph.OpClass { return graph.ClassConv }
func (o avgPoolGradOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("AvgPoolGrad", in, 1); err != nil {
		return nil, err
	}
	return copyShape(o.inShape), nil
}
func (o avgPoolGradOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.AvgPoolGradInto(ctx.Pool, out, in[0], o.k, o.s, o.pad)
}

// AvgPool applies k×k average pooling with stride s and padding pad.
func AvgPool(x *graph.Node, k, s, pad int) *graph.Node {
	return x.Graph().MustApply(avgPoolOp{k, s, pad}, x)
}

// ---- Local Response Normalization (class C) ----
//
// AlexNet's cross-channel normalization:
// y[c] = x[c] / (k + α/n · Σ_{c'∈window} x[c']²)^β.
// The kernels are tensor.LRNInto and tensor.LRNGradInto.
type lrnOp struct {
	depth       int // window size n
	bias        float32
	alpha, beta float32
}

func (lrnOp) Name() string         { return "LRN" }
func (lrnOp) Class() graph.OpClass { return graph.ClassElementwise }
func (o lrnOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("LRN", in, 1); err != nil {
		return nil, err
	}
	if len(in[0]) != 4 {
		return nil, fmt.Errorf("LRN wants NHWC, got %v", in[0])
	}
	if o.depth < 1 {
		return nil, fmt.Errorf("LRN window depth %d, want at least 1", o.depth)
	}
	return copyShape(in[0]), nil
}

func (o lrnOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.LRNInto(ctx.Pool, out, in[0], o.depth, o.bias, o.alpha, o.beta)
}

func (o lrnOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	return []*graph.Node{g.MustApply(lrnGradOp{o}, n.Inputs()[0], n, grad)}, nil
}

// lrnGradOp takes the forward input, the forward output and the output
// gradient.
type lrnGradOp struct{ o lrnOp }

func (lrnGradOp) Name() string         { return "LRNGrad" }
func (lrnGradOp) Class() graph.OpClass { return graph.ClassElementwise }
func (lg lrnGradOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("LRNGrad", in, 3); err != nil {
		return nil, err
	}
	if len(in[0]) != 4 || !tensor.SameShape(in[0], in[1]) || !tensor.SameShape(in[0], in[2]) {
		return nil, fmt.Errorf("LRNGrad wants NHWC input, output and gradient of one shape, got %v %v %v", in[0], in[1], in[2])
	}
	return copyShape(in[0]), nil
}

func (lg lrnGradOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	o := lg.o
	return tensor.LRNGradInto(ctx.Pool, out, in[0], in[1], in[2], o.depth, o.bias, o.alpha, o.beta)
}

// LRN applies AlexNet-style local response normalization across
// channels with window depth, bias k, and parameters alpha, beta.
func LRN(x *graph.Node, depth int, bias, alpha, beta float32) *graph.Node {
	return x.Graph().MustApply(lrnOp{depth: depth, bias: bias, alpha: alpha, beta: beta}, x)
}
