// Package vgg implements the Fathom vgg workload: Simonyan &
// Zisserman's 19-layer network of small 3×3 convolutional filters —
// sixteen convolutions in five pooled blocks followed by three
// fully-connected layers with dropout.
//
// The reference preset keeps the 19-layer topology with input
// resolution 112² and quarter channel widths (DESIGN.md §4.4).
package vgg

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
	core.Register("vgg", func() core.Model { return New() })
}

// Model is the vgg workload.
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
	side, batch, classes int
	widths               [5]int // channels per block
	fc                   int
	lr                   float32
}

func dimsFor(p core.Preset) dims {
	switch p {
	case core.PresetTiny:
		return dims{side: 32, batch: 1, classes: 10, widths: [5]int{4, 8, 16, 16, 16}, fc: 32, lr: 0.01}
	case core.PresetSmall:
		return dims{side: 64, batch: 1, classes: 20, widths: [5]int{8, 16, 32, 64, 64}, fc: 1024, lr: 0.01}
	default:
		return dims{side: 112, batch: 2, classes: 100, widths: [5]int{16, 32, 64, 128, 128}, fc: 4096, lr: 0.01}
	}
}

// New returns an unbuilt vgg.
func New() *Model { return &Model{} }

// Name implements core.Model.
func (m *Model) Name() string { return "vgg" }

// Meta implements core.Model.
func (m *Model) Meta() core.Meta {
	return core.Meta{
		Name: "vgg", Year: 2014, Ref: "Simonyan & Zisserman, arXiv 2014",
		Style: "Convolutional, Full", Layers: 19, Task: "Supervised",
		Dataset: "ImageNet",
		Purpose: "Image classifier demonstrating the power of small convolutional filters. ILSVRC 2014 winner.",
	}
}

// Graph implements core.Model.
func (m *Model) Graph() *graph.Graph { return m.g }

// Config implements core.Model.
func (m *Model) Config() core.Config { return m.cfg }

// LastLoss implements core.LossReporter.
func (m *Model) LastLoss() float64 { return m.lastLoss }

// convsPerBlock is VGG-19's plan: 2,2,4,4,4 convolutions per block.
var convsPerBlock = [5]int{2, 2, 4, 4, 4}

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
	h := m.x
	for b := 0; b < 5; b++ {
		for c := 0; c < convsPerBlock[b]; c++ {
			var p []*graph.Node
			h, p = nn.Conv(g, rng, name("conv", b, c), h, 3, 3, d.widths[b], 1, 1, ops.Relu)
			params = append(params, p...)
		}
		h = ops.MaxPool(h, 2, 2, 0)
	}
	flatDim := h.Shape()[1] * h.Shape()[2] * h.Shape()[3]
	h = ops.Reshape(h, d.batch, flatDim)
	h, p := nn.Dense(g, rng, "fc1", h, flatDim, d.fc, ops.Relu)
	params = append(params, p...)
	h = ops.Dropout(h, 0.5)
	h, p = nn.Dense(g, rng, "fc2", h, d.fc, d.fc, ops.Relu)
	params = append(params, p...)
	h = ops.Dropout(h, 0.5)
	logits, p := nn.Dense(g, rng, "fc3", h, d.fc, d.classes, nil)
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

func name(prefix string, b, c int) string {
	return prefix + string(rune('1'+b)) + "_" + string(rune('1'+c))
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
