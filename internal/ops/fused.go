package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Epilogue fusion (kernel tier 2): graph.FuseEpilogues folds
// elementwise consumers — bias adds, activations — into their MatMul /
// Conv2D producer, and this file supplies the fused kernel. The fused
// op runs the producer's Into kernel into the output buffer, then
// applies each absorbed epilogue in place on that buffer
// (tensor.BinaryOpInPlace / tensor.UnaryOpInPlace), so the
// intermediate tensor between producer and consumer never exists. The
// float operation sequence per element is identical to the unfused
// chain, keeping results bit-identical with fusion on or off.

// epilogue is one absorbed elementwise step. It stores kind
// descriptors, never closures, so fused ops keep printable,
// CSE-fingerprint-stable attribute structs.
type epilogue struct {
	unary bool
	un    unKind
	bin   binKind
	swap  bool // the producer result is the binary op's right operand
}

func (e epilogue) label() string {
	if e.unary {
		return unNames[e.un]
	}
	return binNames[e.bin]
}

// epilogueFor maps a consumer op onto an epilogue descriptor; pos is
// the consumer input slot fed by the producer. Only the elementwise
// arithmetic ops qualify.
func epilogueFor(consumer graph.Op, pos int) (epilogue, bool) {
	switch c := consumer.(type) {
	case unOp:
		return epilogue{unary: true, un: c.kind}, true
	case binOp:
		return epilogue{bin: c.kind, swap: pos == 1}, true
	}
	return epilogue{}, false
}

// fusedEpilogueOp computes base followed by a chain of elementwise
// epilogues applied in place on the base kernel's output. Inputs are
// the base op's inputs (arity of them) followed by one operand per
// binary epilogue, in fusion order. Pure and stateless like its parts;
// it implements graph.EpilogueProducer, so chains keep absorbing.
type fusedEpilogueOp struct {
	base  kernelOp // MatMul or Conv2D
	arity int      // base input count
	eps   []epilogue
}

func (o *fusedEpilogueOp) Name() string {
	s := o.base.Name()
	for _, e := range o.eps {
		s += "+" + e.label()
	}
	return s
}

func (o *fusedEpilogueOp) Class() graph.OpClass { return o.base.Class() }

func (o *fusedEpilogueOp) InferShape(in [][]int) ([]int, error) {
	if len(in) < o.arity {
		return nil, fmt.Errorf("%s wants at least %d inputs, got %d", o.Name(), o.arity, len(in))
	}
	shape, err := o.base.InferShape(in[:o.arity])
	if err != nil {
		return nil, err
	}
	next := o.arity
	for _, e := range o.eps {
		if e.unary {
			continue
		}
		if next >= len(in) {
			return nil, fmt.Errorf("%s missing the operand of epilogue %s", o.Name(), e.label())
		}
		bs, err := tensor.BroadcastShapes(shape, in[next])
		if err != nil {
			return nil, err
		}
		if !tensor.SameShape(bs, shape) {
			return nil, fmt.Errorf("%s epilogue %s operand %v broadens the producer shape %v", o.Name(), e.label(), in[next], shape)
		}
		next++
	}
	if next != len(in) {
		return nil, fmt.Errorf("%s wants %d inputs, got %d", o.Name(), next, len(in))
	}
	return shape, nil
}

// ForwardInto: the base kernel fully overwrites out, and the epilogues
// rewrite it in place — out never aliases an input (the epilogue
// operands are distinct buffers).
func (o *fusedEpilogueOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	if err := o.base.ForwardInto(ctx, in[:o.arity], out); err != nil {
		return err
	}
	next := o.arity
	for _, e := range o.eps {
		if e.unary {
			tensor.UnaryOpInPlace(ctx.Pool, out, unOp{e.un}.fn())
			continue
		}
		if err := tensor.BinaryOpInPlace(ctx.Pool, out, in[next], e.swap, binOp{e.bin}.fn()); err != nil {
			return err
		}
		next++
	}
	return nil
}

func (o *fusedEpilogueOp) Cost(in [][]int, out []int) (int64, int64) {
	var flops, bytes int64
	if c, ok := o.base.(graph.Coster); ok {
		flops, bytes = c.Cost(in[:o.arity], out)
	} else {
		bytes = defaultBytes(in[:o.arity], out)
	}
	// Each epilogue touches every output element once, in cache.
	flops += int64(tensor.SizeOf(out)) * int64(len(o.eps))
	return flops, bytes
}

// AbsorbEpilogue implements graph.EpilogueProducer: a fused chain
// absorbs further consumers by appending to a copied epilogue list
// (ops are shared across graphs, so the list is never mutated).
func (o *fusedEpilogueOp) AbsorbEpilogue(consumer graph.Op, pos int) (graph.Op, bool) {
	e, ok := epilogueFor(consumer, pos)
	if !ok {
		return nil, false
	}
	eps := make([]epilogue, len(o.eps), len(o.eps)+1)
	copy(eps, o.eps)
	return &fusedEpilogueOp{base: o.base, arity: o.arity, eps: append(eps, e)}, true
}

// AbsorbEpilogue implements graph.EpilogueProducer for the dense GEMM.
func (o matMulOp) AbsorbEpilogue(consumer graph.Op, pos int) (graph.Op, bool) {
	e, ok := epilogueFor(consumer, pos)
	if !ok {
		return nil, false
	}
	return &fusedEpilogueOp{base: o, arity: 2, eps: []epilogue{e}}, true
}

// AbsorbEpilogue implements graph.EpilogueProducer for Conv2D (the
// im2col + GEMM lowering makes the bias/activation epilogue exactly as
// profitable as on the plain GEMM).
func (o conv2DOp) AbsorbEpilogue(consumer graph.Op, pos int) (graph.Op, bool) {
	e, ok := epilogueFor(consumer, pos)
	if !ok {
		return nil, false
	}
	return &fusedEpilogueOp{base: o, arity: 2, eps: []epilogue{e}}, true
}
