package nn

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ops"
)

// TrainPlan records the training structure BuildTraining assembles for
// a workload: the loss, the trainable parameters, their raw gradient
// nodes, the self-contained optimizer step (TrainOp — the node the
// classic TrainStep fetches), and the optimizer recipe. It is the
// gradient/update fetch surface data-parallel training (internal/dist)
// drives: a dist replica fetches Loss plus Grads to compute one
// micro-batch's unclipped gradients without touching any variable,
// and applies an externally combined gradient through the fed-gradient
// path DistApplyScaled builds on first use.
type TrainPlan struct {
	g       *graph.Graph
	loss    *graph.Node
	params  []*graph.Node
	grads   []*graph.Node
	trainOp *graph.Node

	opt      Optimizer
	lr, clip float32

	// Fed-gradient apply paths, built lazily by DistApplyScaled and
	// keyed by learning-rate scale: one placeholder per parameter and
	// apply-ops reading them. Each path shares the parameters — and
	// nothing else — with TrainOp: its apply-ops hold their own
	// optimizer slots, so driving one path never perturbs the other's
	// state.
	distPaths map[float32]distPath
}

// distPath is one fed-gradient apply surface.
type distPath struct {
	apply  *graph.Node
	gradIn []*graph.Node
}

// Loss returns the scalar training loss node.
func (tp *TrainPlan) Loss() *graph.Node { return tp.loss }

// Params returns the trainable parameters, in registration order.
func (tp *TrainPlan) Params() []*graph.Node { return tp.params }

// Grads returns the raw (unclipped) gradient nodes, aligned with
// Params. Fetching them runs forward + backward only: no optimizer
// apply-op is in their dependency closure, so variables and optimizer
// slots are untouched.
func (tp *TrainPlan) Grads() []*graph.Node { return tp.grads }

// TrainOp returns the self-contained optimizer step: the group node
// whose fetch applies the live gradients (clipped per the recipe) to
// every parameter.
func (tp *TrainPlan) TrainOp() *graph.Node { return tp.trainOp }

// DistApplyScaled returns the fed-gradient update path, building it on
// first use: gradIn[i] is a placeholder shaped like Params()[i], and
// fetching apply performs the recipe's optimizer step — gradient
// clipping included — reading the fed tensors instead of the live
// gradients. Every dist replica feeds the same combined tensors and
// fetches the same node, so all replicas take one identical step. The
// path is lazy so plain (non-distributed) training never pays for its
// apply-ops or their optimizer slots. The recipe's base learning rate
// is multiplied by scale (as a single float32 product, the same
// arithmetic a horizontally fused array applies per trainee — see
// FusedApply), so a standalone run can reproduce one fused trainee's
// update rule bit for bit. Paths are cached per scale; each holds its
// own placeholders and optimizer slots.
func (tp *TrainPlan) DistApplyScaled(scale float32) (apply *graph.Node, gradIn []*graph.Node, err error) {
	if path, ok := tp.distPaths[scale]; ok {
		return path.apply, path.gradIn, nil
	}
	prefix := "dist/grad/"
	if scale != 1 {
		prefix = fmt.Sprintf("dist/grad@%g/", scale)
	}
	path, err := tp.fedPath(tp.g, prefix, tp.params, []float32{scale}, false)
	if err != nil {
		return nil, nil, err
	}
	if tp.distPaths == nil {
		tp.distPaths = map[float32]distPath{}
	}
	tp.distPaths[scale] = path
	return path.apply, path.gradIn, nil
}

// FusedApply builds the fed-gradient update path of a horizontally
// fused array (internal/fuse) in its graph g: stacked[i] is the (K,…)
// stack of Params()[i], and trainee k steps at the recipe's learning
// rate × scales[k].
func (tp *TrainPlan) FusedApply(g *graph.Graph, stacked []*graph.Node, scales []float32) (apply *graph.Node, gradIn []*graph.Node, err error) {
	path, err := tp.fedPath(g, "fuse/grad/", stacked, scales, true)
	return path.apply, path.gradIn, err
}

// fedPath adds one gradient placeholder per parameter, named prefix +
// the parameter's name, and the recipe's update path reading them.
func (tp *TrainPlan) fedPath(g *graph.Graph, prefix string, params []*graph.Node, scales []float32, stacked bool) (distPath, error) {
	lrs := make([]float32, len(scales))
	for k, s := range scales {
		lrs[k] = tp.lr * s
	}
	ins := make([]*graph.Node, len(params))
	for i, p := range params {
		ins[i] = g.Placeholder(prefix+p.Name(), p.Shape()...)
	}
	apply, err := updatePath(g, tp.opt, tp.clip, params, ins, lrs, stacked)
	return distPath{apply: apply, gradIn: ins}, err
}

// recipes maps each Optimizer to its update rule in internal/ops and
// the constants every workload runs it with.
var recipes = [...]struct {
	rule  string
	hyper []float32
}{
	SGD:      {"GradientDescent", nil},
	Momentum: {"Momentum", []float32{0.9}},
	RMSProp:  {"RMSProp", []float32{0.95, 0.01}},
	Adam:     {"Adam", []float32{0.9, 0.999, epsilon}},
	Adagrad:  {"Adagrad", []float32{epsilon}},
}

const epsilon = 1e-8

// updatePath adds opt's update of every parameter by its gradient —
// clipped elementwise to [-clip, clip] first when clip > 0 — and
// groups the apply-ops behind one fetchable node. params are ordinary
// variables stepping at lrs[0], or stacked (len(lrs),…) variables
// whose lane k steps at lrs[k].
func updatePath(g *graph.Graph, opt Optimizer, clip float32, params, grads []*graph.Node, lrs []float32, stacked bool) (*graph.Node, error) {
	if opt < 0 || int(opt) >= len(recipes) {
		return nil, fmt.Errorf("nn: unknown optimizer %d", opt)
	}
	r := recipes[opt]
	updates := make([]*graph.Node, len(params))
	for i, p := range params {
		fed := grads[i]
		if fed == nil {
			return nil, fmt.Errorf("nn: parameter %s has no gradient path to the loss", p.Name())
		}
		if clip > 0 {
			fed = ops.Maximum(ops.Minimum(fed, ops.ScalarConst(g, clip)), ops.ScalarConst(g, -clip))
		}
		u, err := ops.ApplyUpdate(r.rule, p, fed, lrs, stacked, r.hyper...)
		if err != nil {
			return nil, err
		}
		updates[i] = u
	}
	return ops.Group(g, updates...), nil
}

// BuildTraining builds gradient nodes for loss w.r.t. params and the
// chosen optimizer's apply-ops, returning the full TrainPlan.
// Parameters without a gradient path are rejected.
func BuildTraining(g *graph.Graph, loss *graph.Node, params []*graph.Node, opt Optimizer, lr float32) (*TrainPlan, error) {
	return BuildTrainingClipped(g, loss, params, opt, lr, 0)
}

// BuildTrainingClipped is BuildTraining with elementwise gradient
// clipping to [-clip, clip] when clip > 0 — the stabilization the
// recurrent workloads rely on (Sutskever et al. clip gradients; DQN
// clips TD errors). The recorded Grads stay raw; clipping applies in
// both update paths (TrainOp and DistApplyScaled), so combined dist
// gradients are clipped exactly once, after combination — the
// N-independent order.
func BuildTrainingClipped(g *graph.Graph, loss *graph.Node, params []*graph.Node, opt Optimizer, lr, clip float32) (*TrainPlan, error) {
	grads, err := graph.Gradients(loss, params)
	if err != nil {
		return nil, err
	}
	trainOp, err := updatePath(g, opt, clip, params, grads, []float32{lr}, false)
	if err != nil {
		return nil, err
	}
	return &TrainPlan{
		g: g, loss: loss,
		params:  append([]*graph.Node(nil), params...),
		grads:   grads,
		trainOp: trainOp,
		opt:     opt, lr: lr, clip: clip,
	}, nil
}
