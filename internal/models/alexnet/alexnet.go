// Package alexnet implements the Fathom alexnet workload: Krizhevsky,
// Sutskever & Hinton's 2012 ImageNet classifier — five convolutional
// layers with local response normalization and max pooling, three
// fully-connected layers with dropout, trained with softmax
// cross-entropy and SGD.
//
// The reference preset keeps the original topology (kernel sizes,
// strides, LRN, dropout) with input resolution 112² and proportionally
// reduced channel and FC widths (DESIGN.md §4.4).
package alexnet

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
	core.Register("alexnet", func() core.Model { return New() })
}

// Model is the alexnet workload.
type Model struct {
	cfg                  core.Config
	dims                 dims
	g                    *graph.Graph
	x, y                 *graph.Node
	loss, trainOp, probs *graph.Node
	train                *nn.TrainPlan
	data                 *dataset.ImageNet
	lastLoss             float64
}

type dims struct {
	side, batch, classes   int
	c1, c2, c3, c4, c5, fc int
	lr                     float32
}

func dimsFor(p core.Preset) dims {
	switch p {
	case core.PresetTiny:
		return dims{side: 64, batch: 1, classes: 10, c1: 8, c2: 16, c3: 24, c4: 24, c5: 16, fc: 32, lr: 0.01}
	case core.PresetSmall:
		return dims{side: 64, batch: 2, classes: 20, c1: 24, c2: 64, c3: 96, c4: 96, c5: 64, fc: 512, lr: 0.01}
	default:
		return dims{side: 112, batch: 4, classes: 100, c1: 48, c2: 128, c3: 192, c4: 192, c5: 128, fc: 2560, lr: 0.01}
	}
}

// New returns an unbuilt alexnet.
func New() *Model { return &Model{} }

// Name implements core.Model.
func (m *Model) Name() string { return "alexnet" }

// Meta implements core.Model.
func (m *Model) Meta() core.Meta {
	return core.Meta{
		Name: "alexnet", Year: 2012, Ref: "Krizhevsky et al., NIPS 2012",
		Style: "Convolutional, Full", Layers: 5, Task: "Supervised",
		Dataset: "ImageNet",
		Purpose: "Image classifier. Watershed for deep learning by beating hand-tuned image systems at ILSVRC 2012.",
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
	m.data = dataset.NewImageNet(d.classes, d.side, seed+1)

	g := graph.New()
	m.g = g
	m.x = g.Placeholder("images", d.batch, d.side, d.side, 3)
	m.y = g.Placeholder("labels", d.batch)

	var params []*graph.Node
	// Conv stack with AlexNet's kernel plan: 11×11/4, 5×5, 3×3 ×3.
	h, p := nn.Conv(g, rng, "conv1", m.x, 11, 11, d.c1, 4, 2, ops.Relu)
	params = append(params, p...)
	h = ops.LRN(h, 5, 2, 1e-4, 0.75)
	h = ops.MaxPool(h, 3, 2, 0)

	h, p = nn.Conv(g, rng, "conv2", h, 5, 5, d.c2, 1, 2, ops.Relu)
	params = append(params, p...)
	h = ops.LRN(h, 5, 2, 1e-4, 0.75)
	h = ops.MaxPool(h, 3, 2, 0)

	h, p = nn.Conv(g, rng, "conv3", h, 3, 3, d.c3, 1, 1, ops.Relu)
	params = append(params, p...)
	h, p = nn.Conv(g, rng, "conv4", h, 3, 3, d.c4, 1, 1, ops.Relu)
	params = append(params, p...)
	h, p = nn.Conv(g, rng, "conv5", h, 3, 3, d.c5, 1, 1, ops.Relu)
	params = append(params, p...)
	h = ops.MaxPool(h, 3, 2, 0)

	flatDim := h.Shape()[1] * h.Shape()[2] * h.Shape()[3]
	h = ops.Reshape(h, d.batch, flatDim)
	h, p = nn.Dense(g, rng, "fc6", h, flatDim, d.fc, ops.Relu)
	params = append(params, p...)
	h = ops.Dropout(h, 0.5)
	h, p = nn.Dense(g, rng, "fc7", h, d.fc, d.fc, ops.Relu)
	params = append(params, p...)
	h = ops.Dropout(h, 0.5)
	logits, p := nn.Dense(g, rng, "fc8", h, d.fc, d.classes, nil)
	params = append(params, p...)

	m.loss = ops.CrossEntropy(logits, m.y)
	m.probs = ops.Softmax(logits)
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
	images, labels := dataset.NewImageNet(d.classes, d.side, seed).Batch(d.batch)
	return map[string]*tensor.Tensor{"images": images, "labels": labels}, nil
}

// Signature implements core.Model.
func (m *Model) Signature(mode core.Mode) core.Signature {
	if mode == core.ModeTraining {
		return core.Signature{
			Inputs:  []core.IOSpec{core.In("images", m.x), core.In("labels", m.y)},
			Outputs: []core.IOSpec{core.ScalarOut("loss", m.loss)},
		}
	}
	return core.Signature{
		Inputs:  []core.IOSpec{core.In("images", m.x)},
		Outputs: []core.IOSpec{core.Out("probs", m.probs)},
	}
}

// Infer implements core.Inferencer.
func (m *Model) Infer(s *runtime.Session, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	return core.RunInference(m, s, feeds)
}

// TrainStep implements core.Trainer.
func (m *Model) TrainStep(s *runtime.Session) (float64, error) {
	images, labels := m.data.Batch(m.dims.batch)
	s.SetTraining(true)
	out, err := s.Run([]*graph.Node{m.loss, m.trainOp}, runtime.Feeds{m.x: images, m.y: labels})
	if err != nil {
		return 0, err
	}
	m.lastLoss = float64(out[0].Data()[0])
	return m.lastLoss, nil
}

// Sample implements core.Sampler: one synthetic inference batch.
func (m *Model) Sample() map[string]*tensor.Tensor {
	images, _ := m.data.Batch(m.dims.batch)
	return map[string]*tensor.Tensor{"images": images}
}
