package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Epilogue fusion (kernel tier 2): graph.FuseEpilogues folds
// elementwise consumers — bias adds, activations — into their MatMul /
// Conv2D producer, and this file supplies the fused kernel. The fused
// op runs the producer's kernel into the output buffer, then one pass of
// the block evaluator (tensor.Program) that applies every absorbed
// epilogue to each output block in turn, so the intermediate tensor
// between producer and consumer never exists. The evaluator gives each
// element the float operation sequence of the unfused chain, keeping
// results bit-identical with fusion on or off.

// epilogue is one absorbed elementwise consumer: a unary or binary
// arithmetic op (graph.Pointwise), and for a binary one whether the
// producer result is its right operand.
type epilogue struct {
	op   graph.Op
	swap bool
}

// epilogueFor maps a consumer op onto an epilogue; pos is the consumer
// input slot fed by the producer. Only the elementwise arithmetic ops
// qualify.
func epilogueFor(consumer graph.Op, pos int) (epilogue, bool) {
	switch consumer.(type) {
	case unOp, binOp:
		return epilogue{op: consumer, swap: pos == 1}, true
	}
	return epilogue{}, false
}

// fusedEpilogueOp computes base followed by a chain of elementwise
// epilogues over the base kernel's output. Inputs are the base op's
// inputs (arity of them) followed by one operand per binary epilogue,
// in fusion order. Pure and stateless like its parts; it implements
// graph.EpilogueProducer, so chains keep absorbing.
type fusedEpilogueOp struct {
	base  kernelOp // MatMul or Conv2D
	arity int      // base input count
	eps   []epilogue
	prog  tensor.Program // eps over the output: loads tensor.Dest, then each operand
}

// newFusedEpilogue builds the fused op and its program: slot 0 holds the
// base kernel's output, slots 1.. the binary epilogues' operands, and
// each epilogue is one instruction over the previous one's result.
func newFusedEpilogue(base kernelOp, arity int, eps []epilogue) *fusedEpilogueOp {
	prog := tensor.Program{Loads: []tensor.Load{{In: tensor.Dest}}}
	for _, e := range eps {
		if _, bin := e.op.(binOp); bin {
			prog.Loads = append(prog.Loads, tensor.Load{In: arity + len(prog.Loads) - 1})
		}
	}
	acc, operand := 0, 1
	for k, e := range eps {
		ins := tensor.Instr{Fn: e.op.(graph.Pointwise).Pointwise(), A: acc}
		if ins.Fn.Bin != nil {
			ins.B = operand
			if e.swap {
				ins.A, ins.B = ins.B, ins.A
			}
			operand++
		}
		prog.Code = append(prog.Code, ins)
		acc = len(prog.Loads) + k
	}
	return &fusedEpilogueOp{base: base, arity: arity, eps: eps, prog: prog}
}

func (o *fusedEpilogueOp) Name() string {
	s := o.base.Name()
	for _, e := range o.eps {
		s += "+" + e.op.Name()
	}
	return s
}

func (o *fusedEpilogueOp) Class() graph.OpClass { return o.base.Class() }

func (o *fusedEpilogueOp) InferShape(in [][]int) ([]int, error) {
	if want := o.arity + len(o.prog.Loads) - 1; len(in) != want { // the Dest load has no input
		return nil, fmt.Errorf("%s wants %d inputs, got %d", o.Name(), want, len(in))
	}
	shape, err := o.base.InferShape(in[:o.arity])
	if err != nil {
		return nil, err
	}
	for _, operand := range in[o.arity:] {
		if !tensor.AffineOperand(operand, shape) {
			return nil, fmt.Errorf("%s: epilogue operand %v is not an affine read of the producer shape %v", o.Name(), operand, shape)
		}
	}
	return shape, nil
}

// ForwardInto: the base kernel fully overwrites out, and the program
// then rewrites it block by block — each block's loads are gathered
// before its last instruction stores — so out never aliases an input.
func (o *fusedEpilogueOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	if err := o.base.ForwardInto(ctx, in[:o.arity], out); err != nil {
		return err
	}
	return o.prog.Run(ctx.Pool, out, in)
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
	return newFusedEpilogue(o.base, o.arity, append(eps, e)), true
}

// AbsorbEpilogue implements graph.EpilogueProducer for the dense GEMM.
func (o matMulOp) AbsorbEpilogue(consumer graph.Op, pos int) (graph.Op, bool) {
	e, ok := epilogueFor(consumer, pos)
	if !ok {
		return nil, false
	}
	return newFusedEpilogue(o, 2, []epilogue{e}), true
}

// AbsorbEpilogue implements graph.EpilogueProducer for Conv2D (the
// im2col + GEMM lowering makes the bias/activation epilogue exactly as
// profitable as on the plain GEMM).
func (o conv2DOp) AbsorbEpilogue(consumer graph.Op, pos int) (graph.Op, bool) {
	e, ok := epilogueFor(consumer, pos)
	if !ok {
		return nil, false
	}
	return newFusedEpilogue(o, 2, []epilogue{e}), true
}
