// Package neuraltalk is an *extension* workload beyond the original
// eight: a Karpathy & Fei-Fei-style image-captioning model (the
// NeuralTalk network that Han et al. [24] evaluated, per the paper's
// survey). The paper's conclusion hopes Fathom becomes "a living
// workload suite, incorporating advances as they are discovered";
// this package demonstrates that extensibility — a new model category
// (CNN encoder feeding an LSTM caption decoder) registers through the
// same standard interface and participates in the same tooling.
//
// The synthetic task: procedural textured images (the ImageNet
// substitute) paired with template captions naming their class; the
// decoder must learn to emit the caption from the CNN embedding.
package neuraltalk

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
	core.Register("neuraltalk", func() core.Model { return New() })
}

// Caption vocabulary: BOS, EOS, then one word per image class.
const (
	capBOS = 0
	capEOS = 1
	// capFirstWord is the first class-word token id.
	capFirstWord = 2
)

// Model is the neuraltalk extension workload.
type Model struct {
	cfg           core.Config
	dims          dims
	g             *graph.Graph
	img, caption  *graph.Node
	loss, trainOp *graph.Node
	train         *nn.TrainPlan
	preds         *graph.Node
	data          *dataset.ImageNet
	rng           *rand.Rand
	lastLoss      float64
}

type dims struct {
	side, batch, classes int
	conv1, conv2         int
	embed, hidden        int
	capLen               int // decoder steps (BOS + word + EOS)
	lr                   float32
}

func dimsFor(p core.Preset) dims {
	switch p {
	case core.PresetTiny:
		return dims{side: 24, batch: 4, classes: 6, conv1: 8, conv2: 16, embed: 16, hidden: 16, capLen: 3, lr: 0.05}
	case core.PresetSmall:
		return dims{side: 32, batch: 8, classes: 12, conv1: 16, conv2: 32, embed: 32, hidden: 32, capLen: 3, lr: 0.05}
	default:
		return dims{side: 64, batch: 8, classes: 24, conv1: 32, conv2: 64, embed: 64, hidden: 64, capLen: 3, lr: 0.05}
	}
}

// New returns an unbuilt captioning model.
func New() *Model { return &Model{} }

// Name implements core.Model.
func (m *Model) Name() string { return "neuraltalk" }

// Meta implements core.Model.
func (m *Model) Meta() core.Meta {
	return core.Meta{
		Name: "neuraltalk", Year: 2015, Ref: "Karpathy & Fei-Fei, CVPR 2015",
		Style: "Convolutional, Recurrent", Layers: 5, Task: "Supervised",
		Dataset: "MS COCO",
		Purpose: "Image captioning (extension workload): a convolutional encoder driving a recurrent language decoder — the hybrid topology the paper's survey found only in heavily modified form in prior hardware studies.",
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
	m.rng = rand.New(rand.NewSource(seed + 3))
	rng := rand.New(rand.NewSource(seed))
	m.data = dataset.NewImageNet(d.classes, d.side, seed+1)
	vocab := capFirstWord + d.classes

	g := graph.New()
	m.g = g
	m.img = g.Placeholder("images", d.batch, d.side, d.side, 3)
	m.caption = g.Placeholder("captions", d.capLen, d.batch)

	var params []*graph.Node
	// CNN encoder: two conv blocks then a projection to the LSTM
	// hidden size (the CNN-embedding handoff NeuralTalk popularized).
	h, p := nn.Conv(g, rng, "conv1", m.img, 5, 5, d.conv1, 2, 2, ops.Relu)
	params = append(params, p...)
	h = ops.MaxPool(h, 2, 2, 0)
	h, p = nn.Conv(g, rng, "conv2", h, 3, 3, d.conv2, 1, 1, ops.Relu)
	params = append(params, p...)
	h = ops.MaxPool(h, 2, 2, 0)
	flat := h.Shape()[1] * h.Shape()[2] * h.Shape()[3]
	h = ops.Reshape(h, d.batch, flat)
	imgEmb, p := nn.Dense(g, rng, "proj", h, flat, d.hidden, ops.Tanh)
	params = append(params, p...)

	// LSTM decoder conditioned on the image embedding as the initial
	// hidden state.
	emb := nn.Embedding(g, rng, "emb", vocab, d.embed)
	params = append(params, emb)
	cell := nn.NewLSTMCell(g, rng, "lstm", d.embed, d.hidden)
	params = append(params, cell.Params()...)
	wOut := g.Variable("out/W", nn.Glorot(rng, d.hidden, vocab, d.hidden, vocab))
	bOut := g.Variable("out/b", tensor.New(vocab))
	params = append(params, wOut, bOut)

	hState := imgEmb
	cState := nn.ZeroState(g, "c0", d.batch, d.hidden)
	tokenAt := func(t int) *graph.Node {
		s := ops.SliceN(m.caption, []int{t, 0}, []int{1, d.batch})
		return ops.Reshape(s, d.batch)
	}
	var losses []*graph.Node
	var lastLogits *graph.Node
	for t := 0; t < d.capLen-1; t++ {
		x := ops.Gather(emb, tokenAt(t))
		hState, cState = cell.Step(x, hState, cState)
		logits := ops.Add(ops.MatMul(hState, wOut), bOut)
		lastLogits = logits
		losses = append(losses, ops.CrossEntropy(logits, tokenAt(t+1)))
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

// batch assembles images plus their template captions
// (BOS, class-word, EOS).
func (m *Model) batch() (*tensor.Tensor, *tensor.Tensor) {
	images, labels := m.data.Batch(m.dims.batch)
	return images, m.captionsFor(labels)
}

// captionsFor builds the template captions of a label batch.
func (m *Model) captionsFor(labels *tensor.Tensor) *tensor.Tensor {
	d := m.dims
	caps := tensor.New(d.capLen, d.batch)
	for b := 0; b < d.batch; b++ {
		caps.Set(capBOS, 0, b)
		caps.Set(float32(capFirstWord+int(labels.At(b))), 1, b)
		if d.capLen > 2 {
			caps.Set(capEOS, 2, b)
		}
	}
	return caps
}

// TrainSample implements core.TrainSampler: one training minibatch
// drawn from a generator derived entirely from seed.
func (m *Model) TrainSample(_ *runtime.Session, seed int64) (map[string]*tensor.Tensor, error) {
	d := m.dims
	images, labels := dataset.NewImageNet(d.classes, d.side, seed).Batch(d.batch)
	return map[string]*tensor.Tensor{"images": images, "captions": m.captionsFor(labels)}, nil
}

// Signature implements core.Model. Captions are time-major (T, B), so
// their example axis is dim 1; inference scores the fed caption
// (teacher-forced) alongside the final-step predictions.
func (m *Model) Signature(mode core.Mode) core.Signature {
	ins := []core.IOSpec{core.In("images", m.img), core.InAt("captions", m.caption, 1)}
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
	images, caps := m.batch()
	s.SetTraining(true)
	out, err := s.Run([]*graph.Node{m.loss, m.trainOp}, runtime.Feeds{m.img: images, m.caption: caps})
	if err != nil {
		return 0, err
	}
	m.lastLoss = float64(out[0].Data()[0])
	return m.lastLoss, nil
}

// Sample implements core.Sampler: one synthetic inference batch.
func (m *Model) Sample() map[string]*tensor.Tensor {
	images, caps := m.batch()
	return map[string]*tensor.Tensor{"images": images, "captions": caps}
}
