// Package nn provides the layer-construction helpers shared by the
// ten suite workloads: initializers, dense/convolutional layers,
// batch normalization built from primitive operations (as TensorFlow
// 0.8-era models did), LSTM cells, embeddings, and the primitive
// softmax composite whose Max/Sub/Exp/Sum/Div operations populate the
// recurrent models' profiles in the paper.
package nn

import (
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// Glorot returns a Glorot/Xavier-uniform initialized tensor.
func Glorot(rng *rand.Rand, fanIn, fanOut int, shape ...int) *tensor.Tensor {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return tensor.RandUniform(rng, -limit, limit, shape...)
}

// HeNormal returns a He-normal initialized tensor (ReLU networks).
func HeNormal(rng *rand.Rand, fanIn int, shape ...int) *tensor.Tensor {
	std := math.Sqrt(2.0 / float64(fanIn))
	return tensor.RandNormal(rng, 0, std, shape...)
}

// Activation is a node-level nonlinearity constructor.
type Activation func(*graph.Node) *graph.Node

// Dense builds y = act(x·W + b) with x of shape (B, in).
// It returns the output and the layer's trainable variables.
func Dense(g *graph.Graph, rng *rand.Rand, name string, x *graph.Node, in, out int, act Activation) (*graph.Node, []*graph.Node) {
	w := g.Variable(name+"/W", Glorot(rng, in, out, in, out))
	b := g.Variable(name+"/b", tensor.New(out))
	y := ops.Add(ops.MatMul(x, w), b)
	if act != nil {
		y = act(y)
	}
	return y, []*graph.Node{w, b}
}

// Conv builds a convolutional layer y = act(conv(x, W) + b) in NHWC.
func Conv(g *graph.Graph, rng *rand.Rand, name string, x *graph.Node, kh, kw, cout, stride, pad int, act Activation) (*graph.Node, []*graph.Node) {
	cin := x.Shape()[3]
	w := g.Variable(name+"/W", HeNormal(rng, kh*kw*cin, kh, kw, cin, cout))
	b := g.Variable(name+"/b", tensor.New(cout))
	y := ops.Add(ops.Conv2D(x, w, stride, stride, pad, pad), b)
	if act != nil {
		y = act(y)
	}
	return y, []*graph.Node{w, b}
}

// BatchNorm normalizes x (N,H,W,C) over batch and spatial axes using
// primitive operations (Mean, Sub, Square, Sqrt, Div, Mul, Add), the
// way 2016-era TensorFlow models expressed it, so its cost appears in
// profiles as elementwise and reduction operations. It uses batch
// statistics in both modes (adequate for characterization; documented
// in DESIGN.md).
func BatchNorm(g *graph.Graph, rng *rand.Rand, name string, x *graph.Node) (*graph.Node, []*graph.Node) {
	c := x.Shape()[len(x.Shape())-1]
	shape := make([]int, len(x.Shape()))
	for i := range shape {
		shape[i] = 1
	}
	shape[len(shape)-1] = c
	gamma := g.Variable(name+"/gamma", tensor.Ones(shape...))
	beta := g.Variable(name+"/beta", tensor.New(shape...))
	axes := make([]int, len(x.Shape())-1)
	for i := range axes {
		axes[i] = i
	}
	mean := ops.MeanKeep(x, axes...)
	cent := ops.Sub(x, mean)
	variance := ops.MeanKeep(ops.Square(cent), axes...)
	inv := ops.Sqrt(ops.Add(variance, ops.ScalarConst(g, 1e-5)))
	norm := ops.Div(cent, inv)
	y := ops.Add(ops.Mul(norm, gamma), beta)
	return y, []*graph.Node{gamma, beta}
}

// Embedding declares a (vocab, dim) lookup table variable.
func Embedding(g *graph.Graph, rng *rand.Rand, name string, vocab, dim int) *graph.Node {
	return g.Variable(name, tensor.RandNormal(rng, 0, 0.1, vocab, dim))
}

// LSTMCell is one long short-term memory layer with tied weights
// across time steps (unrolled statically, as 2016 TensorFlow did).
type LSTMCell struct {
	Hidden int
	Wx     *graph.Node // (in, 4H)
	Wh     *graph.Node // (H, 4H)
	B      *graph.Node // (4H)
}

// NewLSTMCell allocates the cell's weights.
func NewLSTMCell(g *graph.Graph, rng *rand.Rand, name string, in, hidden int) *LSTMCell {
	return &LSTMCell{
		Hidden: hidden,
		Wx:     g.Variable(name+"/Wx", Glorot(rng, in, 4*hidden, in, 4*hidden)),
		Wh:     g.Variable(name+"/Wh", Glorot(rng, hidden, 4*hidden, hidden, 4*hidden)),
		B:      g.Variable(name+"/b", tensor.New(4*hidden)),
	}
}

// Params returns the cell's trainable variables.
func (c *LSTMCell) Params() []*graph.Node { return []*graph.Node{c.Wx, c.Wh, c.B} }

// Step advances one time step: x (B,in), h and cs (B,H) → h', cs'.
// The gate order is input, forget, output, candidate.
func (c *LSTMCell) Step(x, h, cs *graph.Node) (hNext, csNext *graph.Node) {
	gates := ops.Add(ops.Add(ops.MatMul(x, c.Wx), ops.MatMul(h, c.Wh)), c.B)
	H := c.Hidden
	slice := func(k int) *graph.Node {
		return ops.SliceN(gates, []int{0, k * H}, []int{-1, H})
	}
	i := ops.Sigmoid(slice(0))
	f := ops.Sigmoid(slice(1))
	o := ops.Sigmoid(slice(2))
	cand := ops.Tanh(slice(3))
	csNext = ops.Add(ops.Mul(f, cs), ops.Mul(i, cand))
	hNext = ops.Mul(o, ops.Tanh(csNext))
	return hNext, csNext
}

// RNNCell is a simple tanh recurrence (Deep Speech's recurrent layer).
type RNNCell struct {
	Hidden int
	Wx     *graph.Node
	Wh     *graph.Node
	B      *graph.Node
}

// NewRNNCell allocates the cell's weights.
func NewRNNCell(g *graph.Graph, rng *rand.Rand, name string, in, hidden int) *RNNCell {
	return &RNNCell{
		Hidden: hidden,
		Wx:     g.Variable(name+"/Wx", Glorot(rng, in, hidden, in, hidden)),
		Wh:     g.Variable(name+"/Wh", Glorot(rng, hidden, hidden, hidden, hidden)),
		B:      g.Variable(name+"/b", tensor.New(hidden)),
	}
}

// Params returns the cell's trainable variables.
func (c *RNNCell) Params() []*graph.Node { return []*graph.Node{c.Wx, c.Wh, c.B} }

// Step advances one time step with a clipped-ReLU nonlinearity
// (Deep Speech's activation).
func (c *RNNCell) Step(x, h *graph.Node) *graph.Node {
	pre := ops.Add(ops.Add(ops.MatMul(x, c.Wx), ops.MatMul(h, c.Wh)), c.B)
	return ops.ClippedRelu(pre, 20)
}

// PrimitiveSoftmax computes softmax over the last axis from primitive
// operations — Max, Sub, Exp, Sum, Div — the pattern that populates
// the seq2seq and memnet rows of the paper's figures (fused Softmax is
// available separately as ops.Softmax).
func PrimitiveSoftmax(x *graph.Node) *graph.Node {
	last := len(x.Shape()) - 1
	m := ops.MaxReduceKeep(x, last)
	e := ops.Exp(ops.Sub(x, m))
	z := ops.SumKeep(e, last)
	return ops.Div(e, z)
}

// ZeroState returns a constant zero tensor node (initial RNN state).
func ZeroState(g *graph.Graph, name string, shape ...int) *graph.Node {
	return g.Const(name, tensor.New(shape...))
}

// Optimizer names the update rule a workload uses.
type Optimizer int

const (
	// SGD is plain gradient descent.
	SGD Optimizer = iota
	// Momentum is Polyak momentum SGD.
	Momentum
	// RMSProp is Hinton's RMSProp (DQN's optimizer).
	RMSProp
	// Adam is Kingma & Ba's Adam (the VAE's optimizer).
	Adam
	// Adagrad is Duchi et al.'s AdaGrad.
	Adagrad
)

// ApplyUpdates builds gradient nodes for loss w.r.t. params and the
// chosen optimizer's apply-ops, grouped behind a single fetchable
// node. Parameters without a gradient path are rejected. It is the
// TrainOp-only convenience over BuildTraining (see train.go), for
// callers that never need the gradient fetch surface.
func ApplyUpdates(g *graph.Graph, loss *graph.Node, params []*graph.Node, opt Optimizer, lr float32) (*graph.Node, error) {
	return ApplyUpdatesClipped(g, loss, params, opt, lr, 0)
}

// ApplyUpdatesClipped is ApplyUpdates with elementwise gradient
// clipping to [-clip, clip] when clip > 0 — the stabilization the
// recurrent workloads rely on (Sutskever et al. clip gradients; DQN
// clips TD errors).
func ApplyUpdatesClipped(g *graph.Graph, loss *graph.Node, params []*graph.Node, opt Optimizer, lr, clip float32) (*graph.Node, error) {
	tp, err := BuildTrainingClipped(g, loss, params, opt, lr, clip)
	if err != nil {
		return nil, err
	}
	return tp.TrainOp(), nil
}
