// Package memnet implements the Fathom memnet workload: Sukhbaatar et
// al.'s end-to-end memory network — embedding matrices A (memory
// keys), C (memory values) and B (query), three memory hops of
// softmax-attention over the stored sentences with a linear inter-hop
// mapping, and a final classifier over answer candidates, trained on
// synthetic bAbI task-1 stories. As in the paper, the profile consists
// of many small Mul/Tile/Sum/Reshape/Shape/Softmax/Add/Div operations
// on skinny tensors that resist parallelization (Fig. 6c).
package memnet

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
	core.Register("memnet", func() core.Model { return New() })
}

// Model is the memnet workload.
type Model struct {
	cfg                  core.Config
	dims                 dims
	g                    *graph.Graph
	stories, query, ans  *graph.Node
	loss, trainOp, probs *graph.Node
	train                *nn.TrainPlan
	data                 *dataset.BABI
	lastLoss             float64
}

type dims struct {
	memories, sentenceLen int // M, L
	embed                 int // d
	hops                  int
	batch                 int
	lr                    float32
}

func dimsFor(p core.Preset) dims {
	switch p {
	case core.PresetTiny:
		return dims{memories: 5, sentenceLen: 5, embed: 16, hops: 2, batch: 8, lr: 0.1}
	case core.PresetSmall:
		return dims{memories: 20, sentenceLen: 6, embed: 32, hops: 3, batch: 16, lr: 0.02}
	default:
		return dims{memories: 50, sentenceLen: 6, embed: 64, hops: 3, batch: 32, lr: 0.02}
	}
}

// New returns an unbuilt memory network.
func New() *Model { return &Model{} }

// Name implements core.Model.
func (m *Model) Name() string { return "memnet" }

// Meta implements core.Model.
func (m *Model) Meta() core.Meta {
	return core.Meta{
		Name: "memnet", Year: 2015, Ref: "Sukhbaatar et al., NIPS 2015",
		Style: "Memory Network", Layers: 3, Task: "Supervised",
		Dataset: "bAbI",
		Purpose: "Facebook's memory-oriented neural system. One of two novel architectures which explore a topology beyond feed-forward lattices of neurons.",
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
	m.data = dataset.NewBABI(d.memories, d.sentenceLen, seed+1)
	vocab := dataset.BABIVocabSize()
	answers := dataset.BABIAnswerClasses()

	g := graph.New()
	m.g = g
	m.stories = g.Placeholder("stories", d.batch, d.memories, d.sentenceLen)
	m.query = g.Placeholder("query", d.batch, d.sentenceLen)
	m.ans = g.Placeholder("answers", d.batch)

	embA := nn.Embedding(g, rng, "A", vocab, d.embed) // memory keys
	embB := nn.Embedding(g, rng, "B", vocab, d.embed) // query
	embC := nn.Embedding(g, rng, "C", vocab, d.embed) // memory values
	// Temporal encodings T_A/T_C: learned per-slot vectors that let
	// the model distinguish "latest" from earlier mentions — the TE
	// component of the original end-to-end memory network.
	teA := g.Variable("TA", tensor.RandNormal(rng, 0, 0.1, 1, d.memories, d.embed))
	teC := g.Variable("TC", tensor.RandNormal(rng, 0, 0.1, 1, d.memories, d.embed))
	hmap := g.Variable("H", nn.Glorot(rng, d.embed, d.embed, d.embed, d.embed))
	wOut := g.Variable("W", nn.Glorot(rng, answers, d.embed, answers, d.embed))
	params := []*graph.Node{embA, embB, embC, teA, teC, hmap, wOut}

	// Bag-of-words sentence encoding: embed every word and sum within
	// the sentence. The dynamic-reshape pattern (Reshape fed by a
	// Shape node) mirrors TensorFlow memory-network implementations
	// and is why Shape ops appear in the paper's memnet profile.
	flatStories := ops.Reshape(m.stories, d.batch*d.memories*d.sentenceLen)
	storyTemplate := g.Const("story_shape", tensor.New(d.batch, d.memories, d.sentenceLen, d.embed))
	memKeys := ops.Sum(ops.ReshapeLike(ops.Gather(embA, flatStories), storyTemplate), 2) // (B,M,d)
	memVals := ops.Sum(ops.ReshapeLike(ops.Gather(embC, flatStories), storyTemplate), 2) // (B,M,d)
	memKeys = ops.Add(memKeys, teA)                                                      // broadcast (1,M,d) over the batch
	memVals = ops.Add(memVals, teC)

	flatQuery := ops.Reshape(m.query, d.batch*d.sentenceLen)
	qTemplate := g.Const("query_shape", tensor.New(d.batch, d.sentenceLen, d.embed))
	u := ops.Sum(ops.ReshapeLike(ops.Gather(embB, flatQuery), qTemplate), 1) // (B,d)

	for hop := 0; hop < d.hops; hop++ {
		// p = softmax(m·u) via explicit Tile + Mul + Sum on skinny
		// tensors, then the primitive Max/Sub/Exp/Sum/Div softmax.
		u3 := ops.ExpandDims(u, 1)                       // (B,1,d)
		uTiled := ops.TileN(u3, []int{1, d.memories, 1}) // (B,M,d)
		scores := ops.Sum(ops.Mul(memKeys, uTiled), 2)   // (B,M)
		p := nn.PrimitiveSoftmax(scores)                 // (B,M)
		p3 := ops.ExpandDims(p, 2)                       // (B,M,1)
		pTiled := ops.TileN(p3, []int{1, 1, d.embed})    // (B,M,d)
		o := ops.Sum(ops.Mul(memVals, pTiled), 1)        // (B,d)
		u = ops.Add(ops.MatMul(u, hmap), o)
	}

	// Answer distribution: W is stored (answers, d); the explicit
	// Transpose matches the weight-tying layout of the original model.
	logits := ops.MatMul(u, ops.Transpose(wOut)) // (B, answers)
	m.loss = ops.CrossEntropy(logits, m.ans)
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
	stories, query, ans := dataset.NewBABI(d.memories, d.sentenceLen, seed).Batch(d.batch)
	return map[string]*tensor.Tensor{"stories": stories, "query": query, "answers": ans}, nil
}

// Signature implements core.Model.
func (m *Model) Signature(mode core.Mode) core.Signature {
	if mode == core.ModeTraining {
		return core.Signature{
			Inputs: []core.IOSpec{
				core.In("stories", m.stories), core.In("query", m.query), core.In("answers", m.ans),
			},
			Outputs: []core.IOSpec{core.ScalarOut("loss", m.loss)},
		}
	}
	return core.Signature{
		Inputs:  []core.IOSpec{core.In("stories", m.stories), core.In("query", m.query)},
		Outputs: []core.IOSpec{core.Out("probs", m.probs)},
	}
}

// Infer implements core.Inferencer.
func (m *Model) Infer(s *runtime.Session, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	return core.RunInference(m, s, feeds)
}

// TrainStep implements core.Trainer.
func (m *Model) TrainStep(s *runtime.Session) (float64, error) {
	stories, query, ans := m.data.Batch(m.dims.batch)
	s.SetTraining(true)
	out, err := s.Run([]*graph.Node{m.loss, m.trainOp},
		runtime.Feeds{m.stories: stories, m.query: query, m.ans: ans})
	if err != nil {
		return 0, err
	}
	m.lastLoss = float64(out[0].Data()[0])
	return m.lastLoss, nil
}

// Sample implements core.Sampler: one synthetic inference batch.
func (m *Model) Sample() map[string]*tensor.Tensor {
	stories, query, _ := m.data.Batch(m.dims.batch)
	return map[string]*tensor.Tensor{"stories": stories, "query": query}
}
