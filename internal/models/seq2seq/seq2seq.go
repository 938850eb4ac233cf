// Package seq2seq implements the Fathom seq2seq workload: Sutskever,
// Vinyals & Le's sequence-to-sequence translation model — a
// multi-layer LSTM encoder–decoder with Bahdanau-style attention over
// the encoder states, embeddings on both sides, and per-step softmax
// cross-entropy, trained with SGD on synthetic WMT-style parallel
// text. The statically unrolled recurrence with tied weights produces
// the many small MatMul/Mul/Add/Tile/Transpose/Sum/AddN operations
// that characterize the paper's seq2seq profile (Fig. 6b).
package seq2seq

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/models/nn"
	"repro/internal/ops"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

func init() {
	core.Register("seq2seq", func() core.Model { return New() })
}

// Model is the seq2seq workload.
type Model struct {
	cfg           core.Config
	dims          dims
	g             *graph.Graph
	src, dst      *graph.Node
	loss, trainOp *graph.Node
	train         *nn.TrainPlan
	preds         *graph.Node
	data          *dataset.Translation
	lastLoss      float64
}

type dims struct {
	vocab, embed, hidden int
	layers               int
	srcLen               int // source tokens (EOS added by the dataset)
	batch                int
	lr                   float32
}

func dimsFor(p core.Preset) dims {
	switch p {
	case core.PresetTiny:
		return dims{vocab: 40, embed: 12, hidden: 12, layers: 2, srcLen: 4, batch: 4, lr: 0.05}
	case core.PresetSmall:
		return dims{vocab: 300, embed: 16, hidden: 16, layers: 2, srcLen: 12, batch: 4, lr: 0.1}
	default:
		return dims{vocab: 1000, embed: 32, hidden: 32, layers: 3, srcLen: 20, batch: 8, lr: 0.1}
	}
}

// New returns an unbuilt translation model.
func New() *Model { return &Model{} }

// Name implements core.Model.
func (m *Model) Name() string { return "seq2seq" }

// Meta implements core.Model.
func (m *Model) Meta() core.Meta {
	return core.Meta{
		Name: "seq2seq", Year: 2014, Ref: "Sutskever et al., NIPS 2014",
		Style: "Recurrent", Layers: 7, Task: "Supervised",
		Dataset: "WMT-15",
		Purpose: "Direct language-to-language sentence translation. State-of-the-art accuracy with a simple, language-agnostic architecture.",
	}
}

// Graph implements core.Model.
func (m *Model) Graph() *graph.Graph { return m.g }

// Config implements core.Model.
func (m *Model) Config() core.Config { return m.cfg }

// LastLoss implements core.LossReporter.
func (m *Model) LastLoss() float64 { return m.lastLoss }

// Setup implements core.Model.
func (m *Model) Setup(cfg core.Config) error {
	m.cfg = cfg
	m.dims = dimsFor(cfg.Preset)
	m.dims.batch = cfg.BatchOr(m.dims.batch)
	d := m.dims
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	m.data = dataset.NewTranslation(d.vocab, d.srcLen, seed+1)

	tEnc := d.srcLen + 1 // + EOS
	tDec := d.srcLen + 2 // BOS + body + EOS

	g := graph.New()
	m.g = g
	m.src = g.Placeholder("src_tokens", tEnc, d.batch)
	m.dst = g.Placeholder("dst_tokens", tDec, d.batch)

	var params []*graph.Node
	embSrc := nn.Embedding(g, rng, "emb_src", d.vocab, d.embed)
	embDst := nn.Embedding(g, rng, "emb_dst", d.vocab, d.embed)
	params = append(params, embSrc, embDst)

	// Stacked LSTM cells, weights tied across time.
	enc := make([]*nn.LSTMCell, d.layers)
	dec := make([]*nn.LSTMCell, d.layers)
	for l := 0; l < d.layers; l++ {
		in := d.hidden
		if l == 0 {
			in = d.embed
		}
		enc[l] = nn.NewLSTMCell(g, rng, name("enc", l), in, d.hidden)
		dec[l] = nn.NewLSTMCell(g, rng, name("dec", l), in, d.hidden)
		params = append(params, enc[l].Params()...)
		params = append(params, dec[l].Params()...)
	}

	tokenAt := func(seq *graph.Node, t int) *graph.Node {
		s := ops.SliceN(seq, []int{t, 0}, []int{1, d.batch})
		return ops.Reshape(s, d.batch)
	}

	// --- Encoder ---
	hs := make([]*graph.Node, d.layers)
	cs := make([]*graph.Node, d.layers)
	for l := range hs {
		hs[l] = nn.ZeroState(g, name("h0_enc", l), d.batch, d.hidden)
		cs[l] = nn.ZeroState(g, name("c0_enc", l), d.batch, d.hidden)
	}
	topStates := make([]*graph.Node, tEnc)
	for t := 0; t < tEnc; t++ {
		x := ops.Gather(embSrc, tokenAt(m.src, t))
		for l := 0; l < d.layers; l++ {
			hs[l], cs[l] = enc[l].Step(x, hs[l], cs[l])
			x = hs[l]
		}
		topStates[t] = ops.ExpandDims(hs[d.layers-1], 0) // (1,B,H)
	}
	// Stack time-major then transpose to (B, T, H) for attention —
	// the layout change TensorFlow's seq2seq performs too.
	encTB := ops.ConcatN(0, topStates...)             // (T,B,H)
	encBT := ops.TransposePerm(encTB, []int{1, 0, 2}) // (B,T,H)

	// Attention parameters (Bahdanau-style additive scoring reduced
	// to a dot product after a learned projection).
	wAtt := g.Variable("att/W", nn.Glorot(rng, d.hidden, d.hidden, d.hidden, d.hidden))
	params = append(params, wAtt)
	wOut := g.Variable("out/W", nn.Glorot(rng, 2*d.hidden, d.vocab, 2*d.hidden, d.vocab))
	bOut := g.Variable("out/b", tensor.New(d.vocab))
	params = append(params, wOut, bOut)

	attend := func(query *graph.Node) *graph.Node {
		// score_t = Σ_h enc[b,t,h] · (W·q)[b,h]
		proj := ops.MatMul(query, wAtt)                // (B,H)
		q3 := ops.ExpandDims(proj, 1)                  // (B,1,H)
		qTiled := ops.TileN(q3, []int{1, tEnc, 1})     // (B,T,H)
		scores := ops.Sum(ops.Mul(encBT, qTiled), 2)   // (B,T)
		alpha := nn.PrimitiveSoftmax(scores)           // Max/Sub/Exp/Sum/Div
		a3 := ops.ExpandDims(alpha, 2)                 // (B,T,1)
		aTiled := ops.TileN(a3, []int{1, 1, d.hidden}) // (B,T,H)
		return ops.Sum(ops.Mul(encBT, aTiled), 1)      // (B,H)
	}

	// --- Decoder with teacher forcing: it starts from the encoder's
	// final state (hs/cs currently hold those states). ---
	losses := make([]*graph.Node, 0, tDec-1)
	var lastLogits *graph.Node
	for t := 0; t < tDec-1; t++ {
		x := ops.Gather(embDst, tokenAt(m.dst, t))
		for l := 0; l < d.layers; l++ {
			hs[l], cs[l] = dec[l].Step(x, hs[l], cs[l])
			x = hs[l]
		}
		ctxVec := attend(hs[d.layers-1])
		joined := ops.ConcatN(1, hs[d.layers-1], ctxVec) // (B,2H)
		logits := ops.Add(ops.MatMul(joined, wOut), bOut)
		lastLogits = logits
		losses = append(losses, ops.CrossEntropy(logits, tokenAt(m.dst, t+1)))
	}
	total := losses[0]
	for _, l := range losses[1:] {
		total = ops.Add(total, l)
	}
	m.loss = ops.Div(total, ops.ScalarConst(g, float32(len(losses))))
	m.preds = ops.ArgMax(lastLogits)

	var err error
	m.train, err = nn.BuildTrainingClipped(g, m.loss, params, nn.SGD, d.lr, 1)
	if err != nil {
		return err
	}
	m.trainOp = m.train.TrainOp()
	return nil
}

// TrainPlan exposes the training structure (loss, gradient and update
// fetch surface) for data-parallel training (internal/dist).
func (m *Model) TrainPlan() *nn.TrainPlan { return m.train }

// TrainSample implements core.TrainSampler: one training minibatch
// drawn from a generator derived entirely from seed.
func (m *Model) TrainSample(_ *runtime.Session, seed int64) (map[string]*tensor.Tensor, error) {
	d := m.dims
	src, dst := dataset.NewTranslation(d.vocab, d.srcLen, seed).Batch(d.batch)
	return map[string]*tensor.Tensor{"src_tokens": src, "dst_tokens": dst}, nil
}

func name(prefix string, l int) string { return prefix + "_" + string(rune('0'+l)) }

// Signature implements core.Model. Token sequences are time-major
// (T, B), so the example axis is dim 1. Inference is the forward
// translation pass (teacher-forced layout, the same operation mix as
// deployed greedy decoding): it scores the fed target alongside the
// final-step predictions.
func (m *Model) Signature(mode core.Mode) core.Signature {
	ins := []core.IOSpec{core.InAt("src_tokens", m.src, 1), core.InAt("dst_tokens", m.dst, 1)}
	if mode == core.ModeTraining {
		return core.Signature{
			Inputs:  ins,
			Outputs: []core.IOSpec{core.ScalarOut("loss", m.loss)},
		}
	}
	return core.Signature{
		Inputs:  ins,
		Outputs: []core.IOSpec{core.Out("preds", m.preds), core.ScalarOut("loss", m.loss)},
	}
}

// Infer implements core.Inferencer.
func (m *Model) Infer(s *runtime.Session, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	return core.RunInference(m, s, feeds)
}

// TrainStep implements core.Trainer.
func (m *Model) TrainStep(s *runtime.Session) (float64, error) {
	src, dst := m.data.Batch(m.dims.batch)
	s.SetTraining(true)
	out, err := s.Run([]*graph.Node{m.loss, m.trainOp}, runtime.Feeds{m.src: src, m.dst: dst})
	if err != nil {
		return 0, err
	}
	m.lastLoss = float64(out[0].Data()[0])
	return m.lastLoss, nil
}

// Sample implements core.Sampler: one synthetic inference batch.
func (m *Model) Sample() map[string]*tensor.Tensor {
	src, dst := m.data.Batch(m.dims.batch)
	return map[string]*tensor.Tensor{"src_tokens": src, "dst_tokens": dst}
}
