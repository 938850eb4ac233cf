// Package residual implements the Fathom residual workload: He et
// al.'s ResNet-34 — a 7×7 stem followed by four stages of basic
// residual blocks ([3,4,6,3] blocks of two 3×3 convolutions each) with
// identity shortcuts and batch normalization, global average pooling,
// and a single fully-connected classifier trained with momentum SGD.
//
// Batch normalization is built from primitive operations, as 2016-era
// TensorFlow models expressed it, so its cost is visible in profiles
// as elementwise and reduction operations. The reference preset keeps
// all 34 layers at input resolution 112² with reduced widths
// (DESIGN.md §4.4).
package residual

import (
	"fmt"
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
	core.Register("residual", func() core.Model { return New() })
}

// Model is the residual workload.
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
	width                int // channels of the first stage
	lr                   float32
}

func dimsFor(p core.Preset) dims {
	switch p {
	case core.PresetTiny:
		return dims{side: 32, batch: 1, classes: 10, width: 4, lr: 0.01}
	case core.PresetSmall:
		return dims{side: 64, batch: 1, classes: 20, width: 8, lr: 0.01}
	default:
		return dims{side: 112, batch: 2, classes: 100, width: 16, lr: 0.01}
	}
}

// New returns an unbuilt residual network.
func New() *Model { return &Model{} }

// Name implements core.Model.
func (m *Model) Name() string { return "residual" }

// Meta implements core.Model.
func (m *Model) Meta() core.Meta {
	return core.Meta{
		Name: "residual", Year: 2015, Ref: "He et al., arXiv 2015",
		Style: "Convolutional", Layers: 34, Task: "Supervised",
		Dataset: "ImageNet",
		Purpose: "Image classifier from Microsoft Research Asia. Dramatically increased the practical depth of convolutional networks. ILSVRC 2015 winner.",
	}
}

// Graph implements core.Model.
func (m *Model) Graph() *graph.Graph { return m.g }

// Config implements core.Model.
func (m *Model) Config() core.Config { return m.cfg }

// LastLoss implements core.LossReporter.
func (m *Model) LastLoss() float64 { return m.lastLoss }

// BatchCoupled implements core.BatchCoupled: the primitive-op batch
// normalization computes statistics over the whole batch, so examples
// are not independent and requests must not share an execution.
func (m *Model) BatchCoupled() bool { return true }

// blocksPerStage is ResNet-34's plan.
var blocksPerStage = [4]int{3, 4, 6, 3}

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
	add := func(p []*graph.Node) { params = append(params, p...) }

	// Stem: 7×7/2 conv, BN, ReLU, 3×3/2 max pool.
	h, p := nn.Conv(g, rng, "stem", m.x, 7, 7, d.width, 2, 3, nil)
	add(p)
	h, p = nn.BatchNorm(g, rng, "stem/bn", h)
	add(p)
	h = ops.Relu(h)
	h = ops.MaxPool(h, 3, 2, 1)

	// basicBlock builds conv-BN-ReLU-conv-BN + shortcut, then ReLU.
	basicBlock := func(name string, x *graph.Node, cout, stride int) *graph.Node {
		h, p := nn.Conv(g, rng, name+"/conv1", x, 3, 3, cout, stride, 1, nil)
		add(p)
		h, p = nn.BatchNorm(g, rng, name+"/bn1", h)
		add(p)
		h = ops.Relu(h)
		h, p = nn.Conv(g, rng, name+"/conv2", h, 3, 3, cout, 1, 1, nil)
		add(p)
		h, p = nn.BatchNorm(g, rng, name+"/bn2", h)
		add(p)
		short := x
		if stride != 1 || x.Shape()[3] != cout {
			short, p = nn.Conv(g, rng, name+"/down", x, 1, 1, cout, stride, 0, nil)
			add(p)
			short, p = nn.BatchNorm(g, rng, name+"/downbn", short)
			add(p)
		}
		return ops.Relu(ops.Add(h, short))
	}

	width := d.width
	for stage := 0; stage < 4; stage++ {
		for blk := 0; blk < blocksPerStage[stage]; blk++ {
			stride := 1
			if stage > 0 && blk == 0 {
				stride = 2
			}
			h = basicBlock(fmt.Sprintf("s%d_b%d", stage+1, blk+1), h, width, stride)
		}
		width *= 2
	}

	// Global average pool and the lone FC classifier (<1% of runtime
	// in the paper's longitudinal comparison).
	spatial := h.Shape()[1]
	h = ops.AvgPool(h, spatial, 1, 0)
	flat := h.Shape()[3]
	h = ops.Reshape(h, d.batch, flat)
	logits, p := nn.Dense(g, rng, "fc", h, flat, d.classes, nil)
	add(p)

	m.loss = ops.CrossEntropy(logits, m.y)
	m.probs = ops.Softmax(logits)
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

// TrainSample implements core.TrainSampler: one training minibatch
// drawn from a generator derived entirely from seed.
func (m *Model) TrainSample(_ *runtime.Session, seed int64) (map[string]*tensor.Tensor, error) {
	d := m.dims
	images, labels := dataset.NewImageNet(d.classes, d.side, seed).Batch(d.batch)
	return map[string]*tensor.Tensor{"images": images, "labels": labels}, nil
}

// Signature implements core.Model. Note that the primitive-op batch
// normalization couples examples across the batch axis: unlike the
// other convolutional workloads, residual's per-example outputs depend
// on what shares the batch (relevant to micro-batched serving).
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
