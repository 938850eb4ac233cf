// Package speech implements the Fathom speech workload: Hannun et
// al.'s Deep Speech — three fully-connected layers with the clipped
// ReLU activation applied framewise, one bidirectional vanilla
// recurrent layer (deliberately not LSTM: the authors "limited
// ourselves to a single recurrent layer… and do not use
// Long-Short-Term-Memory circuits"), a framewise output layer, and the
// connectionist temporal classification loss over unsegmented
// synthetic TIMIT-like utterances. As in the paper's profile, runtime
// is dominated by matrix multiplication plus the CTC dynamic program.
package speech

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
	core.Register("speech", func() core.Model { return New() })
}

// Model is the speech workload.
type Model struct {
	cfg           core.Config
	dims          dims
	g             *graph.Graph
	x, y          *graph.Node
	loss, trainOp *graph.Node
	train         *nn.TrainPlan
	logits        *graph.Node
	data          *dataset.TIMIT
	lastLoss      float64
}

type dims struct {
	frames, batch, freq int // T, B, F
	hidden              int
	phonemes, maxLabels int
	lr                  float32
}

func dimsFor(p core.Preset) dims {
	switch p {
	case core.PresetTiny:
		return dims{frames: 12, batch: 2, freq: 8, hidden: 16, phonemes: 6, maxLabels: 4, lr: 1e-3}
	case core.PresetSmall:
		return dims{frames: 48, batch: 4, freq: 32, hidden: 96, phonemes: 30, maxLabels: 16, lr: 1e-3}
	default:
		return dims{frames: 100, batch: 8, freq: 64, hidden: 256, phonemes: 39, maxLabels: 35, lr: 1e-3}
	}
}

// New returns an unbuilt Deep Speech model.
func New() *Model { return &Model{} }

// Name implements core.Model.
func (m *Model) Name() string { return "speech" }

// Meta implements core.Model.
func (m *Model) Meta() core.Meta {
	return core.Meta{
		Name: "speech", Year: 2014, Ref: "Hannun et al., arXiv 2014",
		Style: "Recurrent, Full", Layers: 5, Task: "Supervised",
		Dataset: "TIMIT",
		Purpose: "Baidu's speech recognition engine. Proved purely deep-learned networks can beat hand-tuned systems.",
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
	m.data = dataset.NewTIMIT(d.phonemes, d.freq, d.frames, d.maxLabels, seed+1)

	g := graph.New()
	m.g = g
	m.x = g.Placeholder("spectrograms", d.frames, d.batch, d.freq)
	m.y = g.Placeholder("labels", d.batch, d.maxLabels)

	var params []*graph.Node
	clipped := func(x *graph.Node) *graph.Node { return ops.ClippedRelu(x, 20) }

	// Layers 1–3: framewise dense stack over all T·B frames at once —
	// the big fused matrix multiplications Deep Speech was designed
	// around.
	h := ops.Reshape(m.x, d.frames*d.batch, d.freq)
	h, p := nn.Dense(g, rng, "fc1", h, d.freq, d.hidden, clipped)
	params = append(params, p...)
	h, p = nn.Dense(g, rng, "fc2", h, d.hidden, d.hidden, clipped)
	params = append(params, p...)
	h, p = nn.Dense(g, rng, "fc3", h, d.hidden, d.hidden, clipped)
	params = append(params, p...)

	// Layer 4: bidirectional simple recurrence. Forward and backward
	// passes share per-direction weights across time (unrolled).
	fw := nn.NewRNNCell(g, rng, "rnn_fw", d.hidden, d.hidden)
	bw := nn.NewRNNCell(g, rng, "rnn_bw", d.hidden, d.hidden)
	params = append(params, fw.Params()...)
	params = append(params, bw.Params()...)

	// One slice node per frame, shared by both directions, so the
	// frame gradients form an exact partition of h and autodiff
	// assembles them with a single Concat instead of O(T²) padding.
	frames := make([]*graph.Node, d.frames)
	frame := func(t int) *graph.Node {
		if frames[t] == nil {
			frames[t] = ops.SliceN(h, []int{t * d.batch, 0}, []int{d.batch, d.hidden})
		}
		return frames[t]
	}
	fwOut := make([]*graph.Node, d.frames)
	state := nn.ZeroState(g, "h0_fw", d.batch, d.hidden)
	for t := 0; t < d.frames; t++ {
		state = fw.Step(frame(t), state)
		fwOut[t] = state
	}
	bwOut := make([]*graph.Node, d.frames)
	state = nn.ZeroState(g, "h0_bw", d.batch, d.hidden)
	for t := d.frames - 1; t >= 0; t-- {
		state = bw.Step(frame(t), state)
		bwOut[t] = state
	}
	// h4_t = fw_t + bw_t, re-stacked to (T·B, H).
	combined := make([]*graph.Node, d.frames)
	for t := 0; t < d.frames; t++ {
		combined[t] = ops.Add(fwOut[t], bwOut[t])
	}
	h4 := ops.ConcatN(0, combined...)

	// Layer 5 + output: dense then per-frame phoneme logits
	// (phonemes + 1 for the CTC blank).
	h5, p := nn.Dense(g, rng, "fc5", h4, d.hidden, d.hidden, clipped)
	params = append(params, p...)
	k := d.phonemes + 1
	logitsFlat, p := nn.Dense(g, rng, "out", h5, d.hidden, k, nil)
	params = append(params, p...)
	m.logits = ops.Reshape(logitsFlat, d.frames, d.batch, k)

	m.loss = ops.CTCLoss(m.logits, m.y)
	var err error
	m.train, err = nn.BuildTraining(g, m.loss, params, nn.SGD, d.lr)
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
	spec, labels := dataset.NewTIMIT(d.phonemes, d.freq, d.frames, d.maxLabels, seed).Batch(d.batch)
	return map[string]*tensor.Tensor{"spectrograms": spec, "labels": labels}, nil
}

// Signature implements core.Model. Spectrograms and logits are
// frame-major (T, B, …), so the example axis is dim 1. Inference
// transcribes: framewise logits only (decoding is a host-side argmax,
// as in the original implementation).
func (m *Model) Signature(mode core.Mode) core.Signature {
	if mode == core.ModeTraining {
		return core.Signature{
			Inputs:  []core.IOSpec{core.InAt("spectrograms", m.x, 1), core.In("labels", m.y)},
			Outputs: []core.IOSpec{core.ScalarOut("loss", m.loss)},
		}
	}
	return core.Signature{
		Inputs:  []core.IOSpec{core.InAt("spectrograms", m.x, 1)},
		Outputs: []core.IOSpec{core.OutAt("logits", m.logits, 1)},
	}
}

// Infer implements core.Inferencer.
func (m *Model) Infer(s *runtime.Session, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	return core.RunInference(m, s, feeds)
}

// TrainStep implements core.Trainer.
func (m *Model) TrainStep(s *runtime.Session) (float64, error) {
	spec, labels := m.data.Batch(m.dims.batch)
	s.SetTraining(true)
	out, err := s.Run([]*graph.Node{m.loss, m.trainOp}, runtime.Feeds{m.x: spec, m.y: labels})
	if err != nil {
		return 0, err
	}
	m.lastLoss = float64(out[0].Data()[0])
	return m.lastLoss, nil
}

// Sample implements core.Sampler: one synthetic inference batch.
func (m *Model) Sample() map[string]*tensor.Tensor {
	spec, _ := m.data.Batch(m.dims.batch)
	return map[string]*tensor.Tensor{"spectrograms": spec}
}
