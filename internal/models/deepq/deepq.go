// Package deepq implements the Fathom deepq workload: Mnih et al.'s
// deep Q-network — a convolutional action-value network (8×8/4, 4×4/2
// convolutions and two dense layers in the 2013 configuration) trained
// by Q-learning with experience replay, an ε-greedy behaviour policy,
// a periodically synchronized target network, Huber-clipped TD errors
// and RMSProp. The environment is the package ale game simulator
// (DESIGN.md §4.3); training steps interleave acting in the emulator
// with minibatch updates, exactly like the original agent.
package deepq

import (
	"math/rand"

	"repro/internal/ale"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/models/nn"
	"repro/internal/ops"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

func init() {
	core.Register("deepq", func() core.Model { return New() })
}

// Model is the deepq workload.
type Model struct {
	cfg  core.Config
	dims dims
	g    *graph.Graph

	// Online network (training batch) and its action-selection twin
	// (batch 1), sharing variables.
	stateB  *graph.Node // (B, 84, 84, hist)
	onehotB *graph.Node // (B, actions)
	targetY *graph.Node // (B)
	qB      *graph.Node // (B, actions)
	loss    *graph.Node
	trainOp *graph.Node
	train   *nn.TrainPlan

	stateOne *graph.Node // (1, 84, 84, hist)
	qOne     *graph.Node // (1, actions)

	stateNext *graph.Node // (B, 84, 84, hist) through the target net
	qTarget   *graph.Node // (B, actions)

	onlineVars, targetVars []*graph.Node

	env      *ale.Env
	replay   *replayBuffer
	rng      *rand.Rand
	steps    int
	epsilon  float64
	lastLoss float64
}

type dims struct {
	batch      int
	hist       int
	c1, c2, fc int
	replayCap  int
	syncEvery  int
	gamma      float32
	lr         float32
}

func dimsFor(p core.Preset) dims {
	switch p {
	case core.PresetTiny:
		return dims{batch: 4, hist: 2, c1: 4, c2: 8, fc: 32, replayCap: 64, syncEvery: 8, gamma: 0.99, lr: 25e-5}
	case core.PresetSmall:
		return dims{batch: 8, hist: 4, c1: 8, c2: 16, fc: 128, replayCap: 200, syncEvery: 16, gamma: 0.99, lr: 25e-5}
	default:
		// The 2013 DQN configuration: 16 and 32 filters, 256-unit FC.
		return dims{batch: 32, hist: 4, c1: 16, c2: 32, fc: 256, replayCap: 500, syncEvery: 32, gamma: 0.99, lr: 25e-5}
	}
}

// New returns an unbuilt DQN.
func New() *Model { return &Model{} }

// Name implements core.Model.
func (m *Model) Name() string { return "deepq" }

// Meta implements core.Model.
func (m *Model) Meta() core.Meta {
	return core.Meta{
		Name: "deepq", Year: 2013, Ref: "Mnih et al., NIPS DL Workshop 2013",
		Style: "Convolutional, Full", Layers: 5, Task: "Reinforcement",
		Dataset: "Atari ALE",
		Purpose: "Atari-playing neural network from DeepMind. Achieves superhuman performance on the majority of Atari 2600 games, without any preconceptions.",
	}
}

// Graph implements core.Model.
func (m *Model) Graph() *graph.Graph { return m.g }

// Config implements core.Model.
func (m *Model) Config() core.Config { return m.cfg }

// LastLoss implements core.LossReporter.
func (m *Model) LastLoss() float64 { return m.lastLoss }

// buildNet constructs the Q-network body on input x, returning the
// action-value head and the variables created.
func (m *Model) buildNet(g *graph.Graph, rng *rand.Rand, prefix string, x *graph.Node, actions int) (*graph.Node, []*graph.Node) {
	d := m.dims
	var params []*graph.Node
	h, p := nn.Conv(g, rng, prefix+"/conv1", x, 8, 8, d.c1, 4, 0, ops.Relu)
	params = append(params, p...)
	h, p = nn.Conv(g, rng, prefix+"/conv2", h, 4, 4, d.c2, 2, 0, ops.Relu)
	params = append(params, p...)
	b := x.Shape()[0]
	flat := h.Shape()[1] * h.Shape()[2] * h.Shape()[3]
	h = ops.Reshape(h, b, flat)
	h, p = nn.Dense(g, rng, prefix+"/fc1", h, flat, d.fc, ops.Relu)
	params = append(params, p...)
	q, p := nn.Dense(g, rng, prefix+"/q", h, d.fc, actions, nil)
	params = append(params, p...)
	return q, params
}

// buildShared re-applies existing variables to a new input (the
// batch-1 action path shares the online network's weights).
func buildShared(vars []*graph.Node, x *graph.Node, d dims, actions int) *graph.Node {
	h := ops.Relu(ops.Add(ops.Conv2D(x, vars[0], 4, 4, 0, 0), vars[1]))
	h = ops.Relu(ops.Add(ops.Conv2D(h, vars[2], 2, 2, 0, 0), vars[3]))
	b := x.Shape()[0]
	flat := h.Shape()[1] * h.Shape()[2] * h.Shape()[3]
	h = ops.Reshape(h, b, flat)
	h = ops.Relu(ops.Add(ops.MatMul(h, vars[4]), vars[5]))
	return ops.Add(ops.MatMul(h, vars[6]), vars[7])
}

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
	m.rng = rand.New(rand.NewSource(seed))
	m.env = ale.NewEnv(ale.NewPong(), ale.DefaultFrameSkip, d.hist, seed+1)
	m.replay = newReplayBuffer(d.replayCap)
	m.epsilon = 1.0

	actions := m.env.NumActions()
	g := graph.New()
	m.g = g
	rng := rand.New(rand.NewSource(seed + 2))

	m.stateB = g.Placeholder("states", d.batch, ale.Height, ale.Width, d.hist)
	m.onehotB = g.Placeholder("actions_onehot", d.batch, actions)
	m.targetY = g.Placeholder("target_q", d.batch)
	m.stateOne = g.Placeholder("state1", 1, ale.Height, ale.Width, d.hist)
	m.stateNext = g.Placeholder("next_states", d.batch, ale.Height, ale.Width, d.hist)

	m.qB, m.onlineVars = m.buildNet(g, rng, "online", m.stateB, actions)
	m.qOne = buildShared(m.onlineVars, m.stateOne, d, actions)
	m.qTarget, m.targetVars = m.buildNet(g, rng, "target", m.stateNext, actions)
	m.syncTarget()

	// TD loss: Huber(Q(s,a) − y) with the DQN error clipping.
	qsel := ops.Sum(ops.Mul(m.qB, m.onehotB), 1)
	diff := ops.Sub(qsel, m.targetY)
	m.loss = ops.Mean(ops.Huber(diff, 1))
	var err error
	m.train, err = nn.BuildTraining(g, m.loss, m.onlineVars, nn.RMSProp, d.lr)
	if err != nil {
		return err
	}
	m.trainOp = m.train.TrainOp()

	// Prefill the replay buffer with a random policy (the DQN
	// "replay start size") so the first training step already
	// performs a minibatch update.
	for m.replay.len() < d.batch {
		state := m.env.State().Reshape(1, ale.Height, ale.Width, d.hist)
		a := ale.Action(m.rng.Intn(m.env.NumActions()))
		reward, done := m.env.Step(a)
		next := m.env.State().Reshape(1, ale.Height, ale.Width, d.hist)
		m.replay.add(transition{state: state, action: int(a), reward: float32(reward), next: next, done: done})
		if done {
			m.env.Reset()
		}
	}
	// Start ε below 1 so action selection exercises the network.
	m.epsilon = 0.5
	return nil
}

// syncTarget copies online weights into the target network.
func (m *Model) syncTarget() {
	for i, v := range m.onlineVars {
		m.targetVars[i].SetValue(v.Value().Clone())
	}
}

// act runs ε-greedy action selection through the batch-1 network.
func (m *Model) act(s *runtime.Session) (ale.Action, *tensor.Tensor, error) {
	state := m.env.State().Reshape(1, ale.Height, ale.Width, m.dims.hist)
	if m.rng.Float64() < m.epsilon {
		return ale.Action(m.rng.Intn(m.env.NumActions())), state, nil
	}
	out, err := s.Run([]*graph.Node{m.qOne}, runtime.Feeds{m.stateOne: state})
	if err != nil {
		return 0, nil, err
	}
	q := out[0].Data()
	best := 0
	for a := 1; a < len(q); a++ {
		if q[a] > q[best] {
			best = a
		}
	}
	return ale.Action(best), state, nil
}

// Signature implements core.Model. The serving contract is action-
// value evaluation: feed a batch of preprocessed screen states through
// the online network and get Q-values per action. (Self-driven
// inference stepping — acting in the emulator — goes through
// InferStep instead.)
func (m *Model) Signature(mode core.Mode) core.Signature {
	if mode == core.ModeTraining {
		return core.Signature{
			Inputs: []core.IOSpec{
				core.In("states", m.stateB),
				core.In("actions_onehot", m.onehotB),
				core.In("target_q", m.targetY),
			},
			Outputs: []core.IOSpec{core.ScalarOut("loss", m.loss)},
		}
	}
	return core.Signature{
		Inputs:  []core.IOSpec{core.In("states", m.stateB)},
		Outputs: []core.IOSpec{core.Out("q", m.qB)},
	}
}

// Infer implements core.Inferencer: request-driven Q-value evaluation
// over the online network's batch path.
func (m *Model) Infer(s *runtime.Session, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	return core.RunInference(m, s, feeds)
}

// InferStep implements core.InferenceStepper: greedy policy
// evaluation — one nearly-greedy action in the emulator per step, one
// forward pass per action.
func (m *Model) InferStep(s *runtime.Session) error {
	saved := m.epsilon
	m.epsilon = 0.05
	a, _, err := m.act(s)
	m.epsilon = saved
	if err != nil {
		return err
	}
	if _, done := m.env.Step(a); done {
		m.env.Reset()
	}
	return nil
}

// TrainStep implements core.Trainer. A training step acts once in the
// emulator (storing the transition) and performs one minibatch
// Q-learning update.
func (m *Model) TrainStep(s *runtime.Session) (float64, error) {
	s.SetTraining(true)
	d := m.dims

	// Behave in the environment.
	a, state, err := m.act(s)
	if err != nil {
		return 0, err
	}
	reward, done := m.env.Step(a)
	next := m.env.State().Reshape(1, ale.Height, ale.Width, d.hist)
	m.replay.add(transition{state: state, action: int(a), reward: float32(reward), next: next, done: done})
	if done {
		m.env.Reset()
	}
	m.steps++
	// Anneal exploration toward 0.1.
	if m.epsilon > 0.1 {
		m.epsilon -= 0.005
	}

	if m.replay.len() < d.batch {
		return m.lastLoss, nil
	}

	// Assemble the minibatch.
	batch := m.replay.sample(m.rng, d.batch)
	states := tensor.New(d.batch, ale.Height, ale.Width, d.hist)
	nexts := tensor.New(d.batch, ale.Height, ale.Width, d.hist)
	onehot := tensor.New(d.batch, m.env.NumActions())
	stride := ale.Height * ale.Width * d.hist
	for i, tr := range batch {
		copy(states.Data()[i*stride:(i+1)*stride], tr.state.Data())
		copy(nexts.Data()[i*stride:(i+1)*stride], tr.next.Data())
		onehot.Set(1, i, tr.action)
	}

	// Bootstrap targets from the frozen network.
	out, err := s.Run([]*graph.Node{m.qTarget}, runtime.Feeds{m.stateNext: nexts})
	if err != nil {
		return 0, err
	}
	qn := out[0]
	y := tensor.New(d.batch)
	for i, tr := range batch {
		best := qn.At(i, 0)
		for a := 1; a < m.env.NumActions(); a++ {
			if v := qn.At(i, a); v > best {
				best = v
			}
		}
		target := tr.reward
		if !tr.done {
			target += d.gamma * best
		}
		y.Set(target, i)
	}

	outs, err := s.Run([]*graph.Node{m.loss, m.trainOp}, runtime.Feeds{
		m.stateB: states, m.onehotB: onehot, m.targetY: y,
	})
	if err != nil {
		return 0, err
	}
	m.lastLoss = float64(outs[0].Data()[0])

	if m.steps%d.syncEvery == 0 {
		m.syncTarget()
	}
	return m.lastLoss, nil
}

// TrainPlan exposes the training structure (loss, gradient and update
// fetch surface) for data-parallel training (internal/dist).
func (m *Model) TrainPlan() *nn.TrainPlan { return m.train }

// TrainSample implements core.TrainSampler. The self-feeding TrainStep
// interleaves emulator acting with replay sampling — policy-coupled
// state that cannot be partitioned deterministically — so the
// data-parallel path trains the Q-network on synthetic transitions
// instead: screen-shaped uniform states, random actions, DQN-clipped
// rewards {-1, 0, +1} and ~5% terminal flags, all drawn from a
// generator seeded only by seed. Q-targets bootstrap through the
// frozen target network on the provided session (a pure read of its
// variables, which dist keeps in lockstep across replicas), exactly
// like the replay path.
func (m *Model) TrainSample(s *runtime.Session, seed int64) (map[string]*tensor.Tensor, error) {
	d := m.dims
	rng := rand.New(rand.NewSource(seed))
	actions := m.env.NumActions()
	states := tensor.RandUniform(rng, 0, 1, d.batch, ale.Height, ale.Width, d.hist)
	nexts := tensor.RandUniform(rng, 0, 1, d.batch, ale.Height, ale.Width, d.hist)
	onehot := tensor.New(d.batch, actions)
	rewards := make([]float32, d.batch)
	dones := make([]bool, d.batch)
	for i := 0; i < d.batch; i++ {
		onehot.Set(1, i, rng.Intn(actions))
		rewards[i] = float32(rng.Intn(3) - 1)
		dones[i] = rng.Float64() < 0.05
	}
	out, err := s.Run([]*graph.Node{m.qTarget}, runtime.Feeds{m.stateNext: nexts})
	if err != nil {
		return nil, err
	}
	qn := out[0]
	y := tensor.New(d.batch)
	for i := 0; i < d.batch; i++ {
		best := qn.At(i, 0)
		for a := 1; a < actions; a++ {
			if v := qn.At(i, a); v > best {
				best = v
			}
		}
		target := rewards[i]
		if !dones[i] {
			target += d.gamma * best
		}
		y.Set(target, i)
	}
	return map[string]*tensor.Tensor{"states": states, "actions_onehot": onehot, "target_q": y}, nil
}

// OnTrainStep is the data-parallel step hook (dist.StepListener):
// after global optimizer step `step` has been applied on this replica,
// sync the target network every syncEvery steps, mirroring the
// self-feeding TrainStep's cadence. The online variables are in
// lockstep across replicas when dist invokes it, so the copied target
// weights stay in lockstep too.
func (m *Model) OnTrainStep(step int) {
	if (step+1)%m.dims.syncEvery == 0 {
		m.syncTarget()
	}
}

// Env exposes the emulator (examples and tests).
func (m *Model) Env() *ale.Env { return m.env }

// Epsilon returns the current exploration rate.
func (m *Model) Epsilon() float64 { return m.epsilon }

// transition is one replay-buffer entry.
type transition struct {
	state  *tensor.Tensor
	action int
	reward float32
	next   *tensor.Tensor
	done   bool
}

// replayBuffer is the DQN's experience replay: a bounded ring with
// uniform sampling.
type replayBuffer struct {
	buf  []transition
	cap  int
	next int
	full bool
}

func newReplayBuffer(capacity int) *replayBuffer {
	return &replayBuffer{buf: make([]transition, 0, capacity), cap: capacity}
}

func (r *replayBuffer) add(t transition) {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, t)
		return
	}
	r.buf[r.next] = t
	r.next = (r.next + 1) % r.cap
	r.full = true
}

func (r *replayBuffer) len() int { return len(r.buf) }

func (r *replayBuffer) sample(rng *rand.Rand, n int) []transition {
	out := make([]transition, n)
	for i := range out {
		out[i] = r.buf[rng.Intn(len(r.buf))]
	}
	return out
}
