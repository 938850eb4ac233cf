// Package attention implements the transformer-style extension
// workload: a small encoder block — multi-head scaled-dot-product
// self-attention, a position-wise feed-forward network, residual
// connections and primitive-op layer normalization — trained on a
// synthetic sequence-reversal task (the output at position i is the
// input token at position S-1-i, so information must move across
// positions through the attention heads; positional embeddings alone
// cannot solve it). It exists to drive the fused attention path end
// to end (tensor.AttentionInto: both products on the one GEMM, a block
// of query rows at a time, no (G,S,S) intermediate): Setup builds each
// head as the unfused Softmax(Q·Kᵀ·scale)·V chain and then runs
// graph.FuseAttention, so every head executes as one FusedAttention
// kernel in both training and serving graphs while remaining
// bit-identical to the unfused reference (the fusion happens before
// gradient construction; the fused op recomputes the probability
// matrix in its own Grad).
package attention

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/models/nn"
	"repro/internal/ops"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

func init() {
	core.Register("attention", func() core.Model { return New() })
}

// Model is the attention workload.
type Model struct {
	cfg             core.Config
	dims            dims
	g               *graph.Graph
	tokens, targets *graph.Node
	loss, trainOp   *graph.Node
	probs           *graph.Node
	train           *nn.TrainPlan
	rng             *rand.Rand
	lastLoss        float64
}

type dims struct {
	vocab, seqLen int
	embed, heads  int
	ffn           int
	batch         int
	lr            float32
}

func dimsFor(p core.Preset) dims {
	switch p {
	case core.PresetTiny:
		return dims{vocab: 12, seqLen: 8, embed: 32, heads: 2, ffn: 64, batch: 8, lr: 0.1}
	case core.PresetSmall:
		return dims{vocab: 24, seqLen: 12, embed: 32, heads: 4, ffn: 64, batch: 8, lr: 0.05}
	default:
		return dims{vocab: 32, seqLen: 16, embed: 64, heads: 4, ffn: 128, batch: 16, lr: 0.05}
	}
}

// New returns an unbuilt attention encoder.
func New() *Model { return &Model{} }

// Name implements core.Model.
func (m *Model) Name() string { return "attention" }

// Meta implements core.Model.
func (m *Model) Meta() core.Meta {
	return core.Meta{
		Name: "attention", Year: 2017, Ref: "Vaswani et al., NIPS 2017",
		Style: "Attention", Layers: 1, Task: "Supervised",
		Dataset: "synthetic reversal",
		Purpose: "Suite extension: the attention-only topology that displaced recurrence. Drives the fused attention kernel (batched softmax(QKᵀ)V on the GEMM, one block of query rows at a time) end to end.",
	}
}

// Graph implements core.Model.
func (m *Model) Graph() *graph.Graph { return m.g }

// Config implements core.Model.
func (m *Model) Config() core.Config { return m.cfg }

// LastLoss implements core.LossReporter.
func (m *Model) LastLoss() float64 { return m.lastLoss }

// layerNorm normalizes x (N, d) over the feature axis with primitive
// operations (Mean, Sub, Square, Sqrt, Div, Mul, Add), the same way
// nn.BatchNorm expresses normalization, plus a learned gain and bias.
func layerNorm(g *graph.Graph, name string, x *graph.Node) (*graph.Node, []*graph.Node) {
	d := x.Shape()[1]
	gamma := g.Variable(name+"/gamma", tensor.Ones(1, d))
	beta := g.Variable(name+"/beta", tensor.New(1, d))
	mean := ops.MeanKeep(x, 1)
	cent := ops.Sub(x, mean)
	variance := ops.MeanKeep(ops.Square(cent), 1)
	inv := ops.Sqrt(ops.Add(variance, ops.ScalarConst(g, 1e-5)))
	y := ops.Add(ops.Mul(ops.Div(cent, inv), gamma), beta)
	return y, []*graph.Node{gamma, beta}
}

// Setup implements core.Model.
func (m *Model) Setup(cfg core.Config) error {
	m.cfg = cfg
	m.dims = dimsFor(cfg.Preset)
	m.dims.batch = cfg.BatchOr(m.dims.batch)
	m.dims.heads = cfg.HeadsOr(m.dims.heads)
	d := m.dims
	if d.heads < 1 || d.embed%d.heads != 0 {
		return fmt.Errorf("attention: embed dim %d not divisible by %d heads", d.embed, d.heads)
	}
	dh := d.embed / d.heads
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	m.rng = rand.New(rand.NewSource(seed + 1))

	g := graph.New()
	m.g = g
	m.tokens = g.Placeholder("tokens", d.batch, d.seqLen)
	m.targets = g.Placeholder("targets", d.batch, d.seqLen)

	emb := nn.Embedding(g, rng, "embed", d.vocab, d.embed)
	pos := g.Variable("pos", tensor.RandNormal(rng, 0, 0.1, 1, d.seqLen, d.embed))
	params := []*graph.Node{emb, pos}

	flat := ops.Reshape(m.tokens, d.batch*d.seqLen)
	x3 := ops.Add(ops.Reshape(ops.Gather(emb, flat), d.batch, d.seqLen, d.embed), pos)
	x := ops.Reshape(x3, d.batch*d.seqLen, d.embed) // (B·S, d)

	// Multi-head self-attention: shared Q/K/V projections, split per
	// head, each head built as the unfused attention chain over rank-3
	// (B, S, Dh) operands. graph.FuseAttention below rewrites every
	// chain into one FusedAttention node.
	wq := g.Variable("attn/Wq", nn.Glorot(rng, d.embed, d.embed, d.embed, d.embed))
	wk := g.Variable("attn/Wk", nn.Glorot(rng, d.embed, d.embed, d.embed, d.embed))
	wv := g.Variable("attn/Wv", nn.Glorot(rng, d.embed, d.embed, d.embed, d.embed))
	wo := g.Variable("attn/Wo", nn.Glorot(rng, d.embed, d.embed, d.embed, d.embed))
	params = append(params, wq, wk, wv, wo)

	q := ops.Split(ops.MatMul(x, wq), 1, d.heads)
	k := ops.Split(ops.MatMul(x, wk), 1, d.heads)
	v := ops.Split(ops.MatMul(x, wv), 1, d.heads)
	scale := float32(1 / math.Sqrt(float64(dh)))
	heads := make([]*graph.Node, d.heads)
	for h := 0; h < d.heads; h++ {
		qh := ops.Reshape(q[h], d.batch, d.seqLen, dh)
		kh := ops.Reshape(k[h], d.batch, d.seqLen, dh)
		vh := ops.Reshape(v[h], d.batch, d.seqLen, dh)
		oh := ops.NaiveAttention(qh, kh, vh, scale) // (B,S,Dh)
		heads[h] = ops.Reshape(oh, d.batch*d.seqLen, dh)
	}
	attnOut := ops.MatMul(ops.ConcatN(1, heads...), wo)
	h1, lnP1 := layerNorm(g, "ln1", ops.Add(x, attnOut))
	params = append(params, lnP1...)

	f1, fp1 := nn.Dense(g, rng, "ffn/1", h1, d.embed, d.ffn, ops.Relu)
	f2, fp2 := nn.Dense(g, rng, "ffn/2", f1, d.ffn, d.embed, nil)
	h2, lnP2 := layerNorm(g, "ln2", ops.Add(h1, f2))
	params = append(params, fp1...)
	params = append(params, fp2...)
	params = append(params, lnP2...)

	logits, outP := nn.Dense(g, rng, "out", h2, d.embed, d.vocab, nil)
	params = append(params, outP...)
	m.loss = ops.CrossEntropy(logits, ops.Reshape(m.targets, d.batch*d.seqLen))
	// Serving output is batch-major rank-3 (B, S, vocab): the engine
	// micro-batches along axis 0, so it must index examples, not B·S rows.
	m.probs = ops.Reshape(ops.Softmax(logits), d.batch, d.seqLen, d.vocab)

	// Fuse the attention chains before gradient construction: the
	// backward pass would otherwise multi-read every probability matrix
	// and block the single-reader gate. The fused op recomputes the
	// probabilities in its own Grad, bit-identically.
	if fused := graph.FuseAttention(g, m.loss, m.probs); fused != d.heads {
		return fmt.Errorf("attention: fused %d attention chains, want %d", fused, d.heads)
	}

	var err error
	m.train, err = nn.BuildTraining(g, m.loss, params, nn.Momentum, d.lr)
	if err != nil {
		return err
	}
	m.trainOp = m.train.TrainOp()
	return nil
}

// TrainPlan exposes the training structure (loss, gradient and update
// fetch surface) for data-parallel training (internal/dist).
func (m *Model) TrainPlan() *nn.TrainPlan { return m.train }

// batch materializes one (tokens, targets) minibatch from rng: random
// token sequences paired with their reversals.
func (m *Model) batch(rng *rand.Rand) (tokens, targets *tensor.Tensor) {
	d := m.dims
	tokens = tensor.New(d.batch, d.seqLen)
	targets = tensor.New(d.batch, d.seqLen)
	td, gd := tokens.Data(), targets.Data()
	for b := 0; b < d.batch; b++ {
		for i := 0; i < d.seqLen; i++ {
			td[b*d.seqLen+i] = float32(rng.Intn(d.vocab))
		}
		for i := 0; i < d.seqLen; i++ {
			gd[b*d.seqLen+i] = td[b*d.seqLen+(d.seqLen-1-i)]
		}
	}
	return tokens, targets
}

// TrainSample implements core.TrainSampler: one training minibatch
// drawn from a generator derived entirely from seed.
func (m *Model) TrainSample(_ *runtime.Session, seed int64) (map[string]*tensor.Tensor, error) {
	tokens, targets := m.batch(rand.New(rand.NewSource(seed)))
	return map[string]*tensor.Tensor{"tokens": tokens, "targets": targets}, nil
}

// Signature implements core.Model.
func (m *Model) Signature(mode core.Mode) core.Signature {
	if mode == core.ModeTraining {
		return core.Signature{
			Inputs:  []core.IOSpec{core.In("tokens", m.tokens), core.In("targets", m.targets)},
			Outputs: []core.IOSpec{core.ScalarOut("loss", m.loss)},
		}
	}
	return core.Signature{
		Inputs:  []core.IOSpec{core.In("tokens", m.tokens)},
		Outputs: []core.IOSpec{core.Out("probs", m.probs)},
	}
}

// Infer implements core.Inferencer.
func (m *Model) Infer(s *runtime.Session, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	return core.RunInference(m, s, feeds)
}

// TrainStep implements core.Trainer.
func (m *Model) TrainStep(s *runtime.Session) (float64, error) {
	tokens, targets := m.batch(m.rng)
	s.SetTraining(true)
	out, err := s.Run([]*graph.Node{m.loss, m.trainOp},
		runtime.Feeds{m.tokens: tokens, m.targets: targets})
	if err != nil {
		return 0, err
	}
	m.lastLoss = float64(out[0].Data()[0])
	return m.lastLoss, nil
}

// Sample implements core.Sampler: one synthetic inference batch.
func (m *Model) Sample() map[string]*tensor.Tensor {
	tokens, _ := m.batch(m.rng)
	return map[string]*tensor.Tensor{"tokens": tokens}
}
