package ops

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Optimizer apply-ops (class F) mutate their target Variable in place,
// mirroring TensorFlow's ApplyGradientDescent / ApplyRMSProp /
// ApplyAdam kernels. There is one op type, applyOp, and one table of
// update rules. The target is a row of lanes, each stepping at its own
// learning rate: an ordinary variable is a single lane, a horizontally
// fused (K,…) stack (see internal/fuse) is K of them, and a fused
// update is nothing but the K-lane call — lane k sees the instruction
// stream, chunk grid and float32 rounding a one-lane op would run on
// it. Slot accumulators (momentum, RMS statistics, the Adam step
// counter) are graph Variables — named "<var>/slot/<name>" and created
// with the op — rather than hidden op state, so checkpoints capture
// them via Graph.Variables() and a resumed run continues the exact
// optimizer trajectory. The output is a scalar zero so updates can be
// grouped behind a NoOp fetch.

// applyRule is one update rule: what state it keeps, how its work is
// chunked and costed, and its arithmetic.
type applyRule struct {
	slots   []string // target-shaped slot variables, in the order bind receives them
	stepped bool     // also keeps a shape-{1} "step" slot counting updates
	hyper   int      // number of constants the rule takes
	grain   int      // parallel-For grain over one lane
	flops   int64    // per element
	words   int64    // float32 words moved per element
	// bind returns the range kernel for one lane: w, g and s are the
	// lane's slices of the target, the gradient and the slots, lr the
	// lane's rate, h the rule's constants and step the update count (0
	// unless stepped). The kernel is a closure over locals, so its
	// element loop compiles like any hand-written Pool.For body.
	bind func(h []float32, lr float32, step float64, w, g []float32, s [][]float32) func(lo, hi int)
}

// applyRules is keyed by the op-type suffix: rule R runs as ApplyR on
// an ordinary variable and ArrayApplyR on a fused stack.
var applyRules = map[string]*applyRule{
	"GradientDescent": {
		grain: 16384, flops: 1, words: 3,
		bind: func(_ []float32, lr float32, _ float64, w, g []float32, _ [][]float32) func(lo, hi int) {
			return func(lo, hi int) {
				for i := lo; i < hi; i++ {
					w[i] -= lr * g[i]
				}
			}
		},
	},
	// h = {momentum}.
	"Momentum": {
		slots: []string{"velocity"}, hyper: 1,
		grain: 16384, flops: 3, words: 5,
		bind: func(h []float32, lr float32, _ float64, w, g []float32, s [][]float32) func(lo, hi int) {
			mom, vel := h[0], s[0]
			return func(lo, hi int) {
				for i := lo; i < hi; i++ {
					vel[i] = mom*vel[i] + g[i]
					w[i] -= lr * vel[i]
				}
			}
		},
	},
	// h = {decay, eps} — the optimizer DeepMind used for DQN (visible in
	// the paper's Fig. 6a).
	"RMSProp": {
		slots: []string{"ms"}, hyper: 2,
		grain: 8192, flops: 6, words: 5,
		bind: func(h []float32, lr float32, _ float64, w, g []float32, s [][]float32) func(lo, hi int) {
			decay, eps, ms := h[0], h[1], s[0]
			return func(lo, hi int) {
				for i := lo; i < hi; i++ {
					ms[i] = decay*ms[i] + (1-decay)*g[i]*g[i]
					w[i] -= lr * g[i] / float32(math.Sqrt(float64(ms[i]))+float64(eps))
				}
			}
		},
	},
	// h = {beta1, beta2, eps} — the optimizer Kingma & Welling's
	// autoencoder work popularized. The step counter lives in a
	// shape-{1} variable so checkpoints restore the bias correction along
	// with the moments; every lane of a stack steps together, so one
	// counter serves them all. float32 holds integer step counts exactly
	// up to 2^24 — far beyond any run here.
	"Adam": {
		slots: []string{"m", "v"}, stepped: true, hyper: 3,
		grain: 8192, flops: 10, words: 7,
		bind: func(h []float32, lrk float32, step float64, w, g []float32, s [][]float32) func(lo, hi int) {
			b1, b2, eps := float64(h[0]), float64(h[1]), float64(h[2])
			c1 := 1 - math.Pow(b1, step)
			c2 := 1 - math.Pow(b2, step)
			lr := float64(lrk) * math.Sqrt(c2) / c1
			m, v := s[0], s[1]
			return func(lo, hi int) {
				for i := lo; i < hi; i++ {
					gi := float64(g[i])
					mi := b1*float64(m[i]) + (1-b1)*gi
					vi := b2*float64(v[i]) + (1-b2)*gi*gi
					m[i], v[i] = float32(mi), float32(vi)
					w[i] -= float32(lr * mi / (math.Sqrt(vi) + eps))
				}
			}
		},
	},
	// h = {eps} — Duchi et al.'s per-parameter learning-rate annealing,
	// the memory-network paper's optimizer family.
	"Adagrad": {
		slots: []string{"accum"}, hyper: 1,
		grain: 8192, flops: 5, words: 5,
		bind: func(h []float32, lr float32, _ float64, w, g []float32, s [][]float32) func(lo, hi int) {
			eps, acc := h[0], s[0]
			return func(lo, hi int) {
				for i := lo; i < hi; i++ {
					acc[i] += g[i] * g[i]
					w[i] -= lr * g[i] / (float32(math.Sqrt(float64(acc[i]))) + eps)
				}
			}
		},
	},
}

// slotVar declares a zero-initialized slot variable for target. The
// name is "<target>/slot/<slot>", uniquified with a "#k" suffix when a
// variable by that name already exists (targets with duplicate names),
// keeping checkpoint keys unambiguous.
func slotVar(target *graph.Node, slot string, shape []int) *graph.Node {
	g := target.Graph()
	taken := map[string]bool{}
	for _, v := range g.Variables() {
		taken[v.Name()] = true
	}
	name := target.Name() + "/slot/" + slot
	for k := 2; taken[name]; k++ {
		name = fmt.Sprintf("%s/slot/%s#%d", target.Name(), slot, k)
	}
	return g.Variable(name, tensor.New(shape...))
}

type applyOp struct {
	name    string // Apply<rule>, or ArrayApply<rule> on a stack
	rule    *applyRule
	target  *graph.Node
	stacked bool      // target carries a leading lane axis of len(lrs)
	lrs     []float32 // one learning rate per lane
	hyper   []float32
	slots   []*graph.Node // target-shaped, in rule.slots order
	step    *graph.Node   // nil unless rule.stepped
}

func (o *applyOp) Name() string       { return o.name }
func (*applyOp) Class() graph.OpClass { return graph.ClassOptimization }
func (o *applyOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs(o.name, in, 1); err != nil {
		return nil, err
	}
	shape := o.target.Shape()
	if !tensor.SameShape(in[0], shape) {
		return nil, fmt.Errorf("%s grad %v vs var %v", o.name, in[0], shape)
	}
	if o.stacked && (len(shape) == 0 || shape[0] != len(o.lrs)) {
		return nil, fmt.Errorf("%s var %v, want leading fusion axis %d", o.name, shape, len(o.lrs))
	}
	return []int{}, nil
}

// ForwardInto updates the target in place; its own result is a scalar
// that references nothing, so a plan frees the gradient's buffer at the
// update.
func (o *applyOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	var step float64
	if o.step != nil {
		st := o.step.Value().Data()
		st[0]++
		step = float64(st[0])
	}
	w, g := o.target.Value().Data(), in[0].Data()
	n := len(w) / len(o.lrs)
	lane := make([][]float32, len(o.slots))
	for k, lr := range o.lrs {
		lo, hi := k*n, (k+1)*n
		for i, s := range o.slots {
			lane[i] = s.Value().Data()[lo:hi]
		}
		ctx.Pool.For(n, o.rule.grain, o.rule.bind(o.hyper, lr, step, w[lo:hi], g[lo:hi], lane))
	}
	out.Data()[0] = 0
	return nil
}
func (o *applyOp) Cost(in [][]int, out []int) (int64, int64) {
	n := int64(tensor.SizeOf(in[0]))
	return o.rule.flops * n, o.rule.words * n * elemBytes
}

// Mutates implements graph.Mutator: the op rewrites its target
// variable and every slot.
func (o *applyOp) Mutates() []*graph.Node {
	m := append([]*graph.Node{o.target}, o.slots...)
	if o.step != nil {
		m = append(m, o.step)
	}
	return m
}

// Impure implements graph.Impure: updates mutate their variable.
func (*applyOp) Impure() {}

// ApplyUpdate adds the named rule's update of variable v by grad. rule
// is an op-type suffix — GradientDescent, Momentum (hyper: momentum),
// RMSProp (decay, eps), Adam (beta1, beta2, eps) or Adagrad (eps). An
// unstacked v is one lane stepping at lrs[0]; a stacked v has shape
// (len(lrs), …) and lane k steps at lrs[k]. The rule's accumulators
// are "<v>/slot/<name>" graph variables shaped like v (Adam's shared
// step counter is shape {1}), so they ride along in checkpoints.
func ApplyUpdate(rule string, v, grad *graph.Node, lrs []float32, stacked bool, hyper ...float32) (*graph.Node, error) {
	r, ok := applyRules[rule]
	if !ok {
		return nil, fmt.Errorf("ops: unknown update rule %q", rule)
	}
	if len(hyper) != r.hyper {
		return nil, fmt.Errorf("ops: update rule %s takes %d constants, got %d", rule, r.hyper, len(hyper))
	}
	if len(lrs) == 0 || (!stacked && len(lrs) > 1) {
		return nil, fmt.Errorf("ops: Apply%s: %d learning rates (stacked %t)", rule, len(lrs), stacked)
	}
	op := &applyOp{
		name: "Apply" + rule, rule: r, target: v, stacked: stacked,
		lrs:   append([]float32(nil), lrs...),
		hyper: append([]float32(nil), hyper...),
	}
	if stacked {
		op.name = "Array" + op.name
	}
	// Checked before the slots exist, so a rejected update leaves no
	// variables behind.
	if _, err := op.InferShape([][]int{grad.Shape()}); err != nil {
		return nil, err
	}
	for _, s := range r.slots {
		op.slots = append(op.slots, slotVar(v, s, v.Shape()))
	}
	if r.stepped {
		op.step = slotVar(v, "step", []int{1})
	}
	return v.Graph().Apply(op, grad)
}

// applyOne is the one-lane call behind the scalar constructors.
func applyOne(rule string, v, grad *graph.Node, lr float32, hyper ...float32) *graph.Node {
	n, err := ApplyUpdate(rule, v, grad, []float32{lr}, false, hyper...)
	if err != nil {
		panic(err)
	}
	return n
}

// ApplySGD adds a gradient-descent update of variable v by grad.
func ApplySGD(v, grad *graph.Node, lr float32) *graph.Node {
	return applyOne("GradientDescent", v, grad, lr)
}

// ApplyMomentum adds a momentum-SGD update of variable v by grad.
func ApplyMomentum(v, grad *graph.Node, lr, momentum float32) *graph.Node {
	return applyOne("Momentum", v, grad, lr, momentum)
}

// ApplyRMSProp adds an RMSProp update of variable v by grad.
func ApplyRMSProp(v, grad *graph.Node, lr, decay, eps float32) *graph.Node {
	return applyOne("RMSProp", v, grad, lr, decay, eps)
}

// ApplyAdam adds an Adam update of variable v by grad.
func ApplyAdam(v, grad *graph.Node, lr, beta1, beta2, eps float32) *graph.Node {
	return applyOne("Adam", v, grad, lr, beta1, beta2, eps)
}

// ApplyAdagrad adds an AdaGrad update of variable v by grad.
func ApplyAdagrad(v, grad *graph.Node, lr, eps float32) *graph.Node {
	return applyOne("Adagrad", v, grad, lr, eps)
}
