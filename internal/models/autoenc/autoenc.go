// Package autoenc implements the Fathom autoenc workload: Kingma &
// Welling's variational autoencoder — a fully-connected encoder
// producing the mean and log-variance of a latent Gaussian, stochastic
// sampling through the reparameterization trick (a
// RandomStandardNormal operation in the forward pass: the model is
// unusual in requiring sampling during inference, as the paper notes),
// a fully-connected decoder, and the ELBO loss (sigmoid
// cross-entropy reconstruction + analytic KL divergence) optimized
// with Adam.
package autoenc

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
	core.Register("autoenc", func() core.Model { return New() })
}

// Model is the autoenc workload.
type Model struct {
	cfg                  core.Config
	dims                 dims
	g                    *graph.Graph
	x                    *graph.Node
	loss, trainOp, recon *graph.Node
	train                *nn.TrainPlan
	data                 *dataset.MNIST
	lastLoss             float64
}

type dims struct {
	batch, hidden, latent int
	lr                    float32
}

func dimsFor(p core.Preset) dims {
	switch p {
	case core.PresetTiny:
		return dims{batch: 4, hidden: 32, latent: 4, lr: 1e-3}
	case core.PresetSmall:
		return dims{batch: 16, hidden: 128, latent: 10, lr: 1e-3}
	default:
		return dims{batch: 64, hidden: 512, latent: 20, lr: 1e-3}
	}
}

// input dimensionality (28×28 MNIST-like digits).
const inputDim = dataset.MNISTSide * dataset.MNISTSide

// New returns an unbuilt variational autoencoder.
func New() *Model { return &Model{} }

// Name implements core.Model.
func (m *Model) Name() string { return "autoenc" }

// Meta implements core.Model.
func (m *Model) Meta() core.Meta {
	return core.Meta{
		Name: "autoenc", Year: 2014, Ref: "Kingma & Welling, ICLR 2014",
		Style: "Full", Layers: 3, Task: "Unsupervised",
		Dataset: "MNIST",
		Purpose: "Variational autoencoder. An efficient, generative model for feature learning.",
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
	m.data = dataset.NewMNIST(seed + 1)

	g := graph.New()
	m.g = g
	m.x = g.Placeholder("images", d.batch, inputDim)

	var params []*graph.Node
	// Encoder.
	h, p := nn.Dense(g, rng, "enc1", m.x, inputDim, d.hidden, ops.Tanh)
	params = append(params, p...)
	mu, p := nn.Dense(g, rng, "mu", h, d.hidden, d.latent, nil)
	params = append(params, p...)
	logvar, p := nn.Dense(g, rng, "logvar", h, d.hidden, d.latent, nil)
	params = append(params, p...)

	// Reparameterization: z = μ + exp(logσ²/2)·ε, ε ~ N(0,1).
	eps := ops.RandomStandardNormal(g, d.batch, d.latent)
	std := ops.Exp(ops.Mul(logvar, ops.ScalarConst(g, 0.5)))
	z := ops.Add(mu, ops.Mul(std, eps))

	// Decoder.
	h, p = nn.Dense(g, rng, "dec1", z, d.latent, d.hidden, ops.Tanh)
	params = append(params, p...)
	logits, p := nn.Dense(g, rng, "dec2", h, d.hidden, inputDim, nil)
	params = append(params, p...)
	m.recon = ops.Sigmoid(logits)

	// ELBO: reconstruction + KL(q(z|x) ‖ N(0,1)), both mean-per-example.
	rec := ops.SigmoidCrossEntropy(logits, m.x)
	// KL = −½ Σ (1 + logσ² − μ² − σ²), averaged over the batch.
	one := ops.ScalarConst(g, 1)
	klInner := ops.Sub(ops.Add(one, logvar), ops.Add(ops.Square(mu), ops.Exp(logvar)))
	kl := ops.Div(
		ops.Mul(ops.Sum(klInner), ops.ScalarConst(g, -0.5)),
		ops.ScalarConst(g, float32(d.batch)),
	)
	m.loss = ops.Add(rec, kl)

	var err error
	m.train, err = nn.BuildTraining(g, m.loss, params, nn.Adam, d.lr)
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
	images, _ := dataset.NewMNIST(seed).Batch(m.dims.batch)
	return map[string]*tensor.Tensor{"images": images}, nil
}

// Signature implements core.Model. Inference reconstructs the batch —
// sampling included, which is what makes the VAE's inference profile
// contain random ops.
func (m *Model) Signature(mode core.Mode) core.Signature {
	if mode == core.ModeTraining {
		return core.Signature{
			Inputs:  []core.IOSpec{core.In("images", m.x)},
			Outputs: []core.IOSpec{core.ScalarOut("loss", m.loss)},
		}
	}
	return core.Signature{
		Inputs:  []core.IOSpec{core.In("images", m.x)},
		Outputs: []core.IOSpec{core.Out("reconstruction", m.recon)},
	}
}

// Infer implements core.Inferencer.
func (m *Model) Infer(s *runtime.Session, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	return core.RunInference(m, s, feeds)
}

// TrainStep implements core.Trainer.
func (m *Model) TrainStep(s *runtime.Session) (float64, error) {
	images, _ := m.data.Batch(m.dims.batch)
	s.SetTraining(true)
	out, err := s.Run([]*graph.Node{m.loss, m.trainOp}, runtime.Feeds{m.x: images})
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
