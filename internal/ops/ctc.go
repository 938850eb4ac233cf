package ops

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// CTC implements connectionist temporal classification (Graves et al.
// 2006), the loss that lets Deep Speech learn from unsegmented audio.
// Logits have shape (T, B, K) with the blank symbol at index K-1;
// labels have shape (B, L) with -1 padding. The loss is the mean over
// the batch of −log p(label | logits).
//
// Both the loss and its gradient run the full forward–backward dynamic
// program; the gradient is emitted as a fused CTCGrad op so that — as
// the paper observes for speech — "the only other significant
// computations are part of the CTC loss function".

const logZero = -1e30 // log-space additive identity

func logAdd(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	if b <= logZero/2 {
		return a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// ctcSequence holds the per-example DP workspace.
type ctcSequence struct {
	ext  []int // extended label sequence with interleaved blanks
	logp float64
}

// extendLabels interleaves blanks: a b c → ∅ a ∅ b ∅ c ∅.
func extendLabels(labels []float32, blank int) []int {
	var u []int
	for _, v := range labels {
		if v < 0 {
			break
		}
		u = append(u, int(v))
	}
	ext := make([]int, 0, 2*len(u)+1)
	ext = append(ext, blank)
	for _, l := range u {
		ext = append(ext, l, blank)
	}
	return ext
}

// ctcForwardBackward computes log p(label|y) and, when gamma is
// non-nil, the posterior state occupancies γ_t(k) = A_t(k)/(p·y_t(k))
// used by the gradient. logY is the per-example log-softmax matrix
// (T, K) in row-major order.
func ctcForwardBackward(logY []float64, T, K int, ext []int, gamma []float64) float64 {
	S := len(ext)
	if S == 0 || T == 0 {
		return logZero
	}
	alpha := make([]float64, T*S)
	beta := make([]float64, T*S)
	for i := range alpha {
		alpha[i] = logZero
		beta[i] = logZero
	}
	// Initialization: the path starts in state 0 (blank) or 1.
	alpha[0] = logY[ext[0]]
	if S > 1 {
		alpha[1] = logY[ext[1]]
	}
	for t := 1; t < T; t++ {
		yRow := logY[t*K : (t+1)*K]
		prev := alpha[(t-1)*S : t*S]
		cur := alpha[t*S : (t+1)*S]
		for s := 0; s < S; s++ {
			a := prev[s]
			if s >= 1 {
				a = logAdd(a, prev[s-1])
			}
			if s >= 2 && ext[s] != ext[s-2] {
				a = logAdd(a, prev[s-2])
			}
			cur[s] = a + yRow[ext[s]]
		}
	}
	logp := alpha[(T-1)*S+S-1]
	if S > 1 {
		logp = logAdd(logp, alpha[(T-1)*S+S-2])
	}
	if gamma == nil {
		return logp
	}
	// Backward pass (β includes y at its own time step).
	beta[(T-1)*S+S-1] = logY[(T-1)*K+ext[S-1]]
	if S > 1 {
		beta[(T-1)*S+S-2] = logY[(T-1)*K+ext[S-2]]
	}
	for t := T - 2; t >= 0; t-- {
		yRow := logY[t*K : (t+1)*K]
		next := beta[(t+1)*S : (t+2)*S]
		cur := beta[t*S : (t+1)*S]
		for s := 0; s < S; s++ {
			b := next[s]
			if s+1 < S {
				b = logAdd(b, next[s+1])
			}
			if s+2 < S && ext[s] != ext[s+2] {
				b = logAdd(b, next[s+2])
			}
			cur[s] = b + yRow[ext[s]]
		}
	}
	// γ_t(k) = Σ_{s: ext[s]=k} exp(α+β − logp − 2·logy + logy)
	//        = Σ exp(α_t(s) + β_t(s) − logp − logY_t(k)).
	if logp <= logZero/2 {
		return logp // no valid alignment: leave γ at zero
	}
	for t := 0; t < T; t++ {
		for s := 0; s < S; s++ {
			k := ext[s]
			v := alpha[t*S+s] + beta[t*S+s] - logp - logY[t*K+k]
			if v > logZero/2 {
				gamma[t*K+k] += math.Exp(v)
			}
		}
	}
	return logp
}

// logSoftmaxRows converts logits rows (length K) to log-softmax.
func logSoftmaxRows(dst []float64, src []float32, rows, K int) {
	for r := 0; r < rows; r++ {
		row := src[r*K : (r+1)*K]
		m := row[0]
		for _, v := range row {
			if v > m {
				m = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - m))
		}
		lse := float64(m) + math.Log(sum)
		for k := 0; k < K; k++ {
			dst[r*K+k] = float64(row[k]) - lse
		}
	}
}

type ctcLossOp struct{}

func (ctcLossOp) Name() string         { return "CTCLoss" }
func (ctcLossOp) Class() graph.OpClass { return graph.ClassReduction }
func (ctcLossOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("CTCLoss", in, 2); err != nil {
		return nil, err
	}
	if len(in[0]) != 3 || len(in[1]) != 2 || in[0][1] != in[1][0] {
		return nil, fmt.Errorf("CTCLoss wants logits (T,B,K) and labels (B,L), got %v %v", in[0], in[1])
	}
	return []int{}, nil
}

func (ctcLossOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	logits, labels := in[0], in[1]
	T, B, K := logits.Shape()[0], logits.Shape()[1], logits.Shape()[2]
	L := labels.Shape()[1]
	blank := K - 1
	losses := make([]float64, B)
	ctx.Pool.For(B, 1, func(lo, hi int) {
		logY := make([]float64, T*K)
		for b := lo; b < hi; b++ {
			// Gather this example's (T,K) slice out of (T,B,K).
			seq := make([]float32, T*K)
			for t := 0; t < T; t++ {
				copy(seq[t*K:(t+1)*K], logits.Data()[(t*B+b)*K:(t*B+b)*K+K])
			}
			logSoftmaxRows(logY, seq, T, K)
			ext := extendLabels(labels.Data()[b*L:(b+1)*L], blank)
			logp := ctcForwardBackward(logY, T, K, ext, nil)
			if logp <= logZero/2 {
				losses[b] = 1e4 // impossible alignment: large finite loss
			} else {
				losses[b] = -logp
			}
		}
	})
	var total float64
	for _, l := range losses {
		total += l
	}
	out.Data()[0] = float32(total / float64(B))
	return nil
}

func (ctcLossOp) Grad(g *graph.Graph, n *graph.Node, grad *graph.Node) ([]*graph.Node, error) {
	logits, labels := n.Inputs()[0], n.Inputs()[1]
	gl := g.MustApply(ctcGradOp{}, logits, labels, grad)
	return []*graph.Node{gl, nil}, nil
}

type ctcGradOp struct{}

func (ctcGradOp) Name() string         { return "CTCGrad" }
func (ctcGradOp) Class() graph.OpClass { return graph.ClassReduction }
func (ctcGradOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("CTCGrad", in, 3); err != nil {
		return nil, err
	}
	return copyShape(in[0]), nil
}

func (ctcGradOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	logits, labels, grad := in[0], in[1], in[2]
	T, B, K := logits.Shape()[0], logits.Shape()[1], logits.Shape()[2]
	L := labels.Shape()[1]
	blank := K - 1
	gscale := grad.Data()[0] / float32(B)
	od := out.Data()
	ctx.Pool.For(B, 1, func(lo, hi int) {
		logY := make([]float64, T*K)
		gamma := make([]float64, T*K)
		for b := lo; b < hi; b++ {
			seq := make([]float32, T*K)
			for t := 0; t < T; t++ {
				copy(seq[t*K:(t+1)*K], logits.Data()[(t*B+b)*K:(t*B+b)*K+K])
			}
			logSoftmaxRows(logY, seq, T, K)
			for i := range gamma {
				gamma[i] = 0
			}
			ext := extendLabels(labels.Data()[b*L:(b+1)*L], blank)
			logp := ctcForwardBackward(logY, T, K, ext, gamma)
			// ∂(−log p)/∂u_t(k) = y_t(k) − γ_t(k); zero when no path.
			for t := 0; t < T; t++ {
				for k := 0; k < K; k++ {
					var gv float64
					if logp > logZero/2 {
						gv = math.Exp(logY[t*K+k]) - gamma[t*K+k]
					}
					od[(t*B+b)*K+k] = float32(gv) * gscale
				}
			}
		}
	})
	return nil
}

// CTCLoss returns the mean CTC loss of logits (T,B,K) against padded
// labels (B,L); the blank symbol is index K-1.
func CTCLoss(logits, labels *graph.Node) *graph.Node {
	return logits.Graph().MustApply(ctcLossOp{}, logits, labels)
}
