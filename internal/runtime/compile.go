package runtime

// Plan compilation: five passes over one step-indexed IR.
//
//	schedule   topological order, roots
//	fuse       connected element-wise sets read only inside themselves, each with at
//	           most one other kernel at its head, become one step
//	liveness   when each slot dies, which fetches must be cloned
//	constrain  data, variable-hazard and Impure-lane scheduling edges
//	assign     an offset in the session slab for each slot, sharing gated by the edges
//
// Every pass is a function of its arguments alone, so each has a table
// test on hand-built graphs in compile_test.go, and checkPlan there
// states what a finished plan must satisfy. A session made
// WithUnfusedPlans skips fuse. compile then binds the plan's slots to
// the slab.
//
// The reader rule, stated once: fuse counts a value's readers among the
// op steps of this plan — the fetch set's transitive dependencies —
// not among the graph's nodes. A gradient tap that a forward-only fetch
// set never runs does not read anything, so the one graph a workload
// builds for training and inference fuses differently in each.
//
// The head rule and the variable rule, stated once: a fused set may
// hold one head — any other kernel that is not Impure or a Mutator: a
// GEMM, a convolution, a reduction, a Tile — which runs first into the
// set's slot while the element-wise members read its value in place;
// and a step whose read of a variable would cross an update of it, were
// the read moved to the set's output, stays out of the set.
//
// The root rule, stated once: a root is a step that owns storage — a
// kernel step owns its slot, a variable step owns its tensor — and
// a view step references what its input references (graph.Op has the
// two kinds). Constants and feeds own nothing the plan manages. Slot
// lifetimes, copy-on-fetch, variable hazards, the gating of shared
// floats and the guard's read sets are all read off that one analysis.

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// rootSet is a set of root steps, sorted by schedule position.
type rootSet []int32

// union returns a ∪ b, sharing storage with an argument when the other
// is empty.
func union(a, b rootSet) rootSet {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make(rootSet, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	return append(append(out, a[i:]...), b[j:]...)
}

// schedule is the IR the passes share; every slice is indexed by
// schedule position.
type schedule struct {
	steps    []planStep
	nOps     int
	fetchPos []int
	// reads[i] is the union of the roots of op step i's inputs; roots[i]
	// is what step i's own value references: itself for a root, and what
	// its first input references for a view.
	reads, roots []rootSet
	// writes[i] are the hazard ids op step i rewrites in place
	// (graph.Mutator). A node's hazard id is its schedule position;
	// mutated nodes outside the schedule (optimizer slot variables
	// nothing fetched reads) are numbered from len(steps) up to hazards.
	writes  [][]int32
	hazards int
}

func (sc *schedule) isSlot(r int32) bool { return sc.steps[r].kernel != nil }
func (sc *schedule) isVar(r int32) bool  { return sc.steps[r].kind == graph.KindVariable }

// newSchedule is the first pass: topological order, one planStep per
// node, and the root analysis.
func newSchedule(fetches []*graph.Node) *schedule {
	order := graph.Topo(fetches)
	steps := make([]planStep, len(order))
	for i, nd := range order {
		steps[i] = planStep{node: nd, kind: nd.Kind(), nodes: order[i : i+1 : i+1]}
	}
	return analyze(steps, fetches)
}

// analyze numbers the steps' inputs by position and runs the root
// analysis over them. Every input must be scheduled: a value fused into
// another step is read by no step.
func analyze(steps []planStep, fetches []*graph.Node) *schedule {
	n := len(steps)
	pos := make(map[*graph.Node]int, n)
	for i := range steps {
		pos[steps[i].node] = i
	}
	sc := &schedule{
		steps: steps, fetchPos: make([]int, len(fetches)),
		reads: make([]rootSet, n), roots: make([]rootSet, n),
		writes: make([][]int32, n), hazards: n,
	}
	for j, f := range fetches {
		sc.fetchPos[j] = pos[f]
	}
	for i := range steps {
		st := &steps[i]
		switch st.kind {
		case graph.KindVariable:
			sc.roots[i] = rootSet{int32(i)}
		case graph.KindOp:
			sc.nOps++
			ins := st.node.Inputs()
			if st.fused != nil {
				ins = st.fused.operands
			}
			st.ins = make([]int, len(ins))
			st.in = make([]*tensor.Tensor, len(ins))
			for j, in := range ins {
				p, ok := pos[in]
				if !ok {
					panic(fmt.Sprintf("runtime: %v reads %v, which no step computes", st.node, in))
				}
				st.ins[j] = p
				sc.reads[i] = union(sc.reads[i], sc.roots[p])
			}
			v, isView := st.node.Op().(graph.ViewOp)
			switch {
			case st.fused != nil:
				st.kernel = st.fused
				sc.roots[i] = rootSet{int32(i)}
			case isView:
				st.view = v
				sc.roots[i] = sc.roots[st.ins[0]]
			default:
				st.kernel = st.node.Op().(kernel) // Graph.Apply admits nothing else
				sc.roots[i] = rootSet{int32(i)}
			}
			if mut, ok := st.node.Op().(graph.Mutator); ok {
				for _, v := range mut.Mutates() {
					id, ok := pos[v]
					if !ok {
						id = sc.hazards
						pos[v] = id
						sc.hazards++
					}
					sc.writes[i] = append(sc.writes[i], int32(id))
				}
			}
		}
	}
	return sc
}

// fusedStep is the kernel of a fused plan step: the set's head, if it
// has one, then the block evaluator over a program built from the other
// members, which reads the head's value through tensor.Dest.
type fusedStep struct {
	head     kernel // run first, into the destination, over the first arity operands
	arity    int
	prog     tensor.Program
	operands []*graph.Node // the values the members read from outside the set, one per input
	name     string        // the members' op names joined with "+": the head, then schedule order
	class    graph.OpClass // the head's class, or element-wise
}

// ForwardInto runs the head, then the program over the step's operands.
// The head writes every element of out, and the program reads each
// element of a block before it stores it, so out aliases no input.
func (f *fusedStep) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	if f.head != nil {
		if err := f.head.ForwardInto(ctx, in[:f.arity], out); err != nil {
			return err
		}
	}
	return f.prog.Run(ctx.Pool, out, in)
}

// member is how a step can take part in a fused set: as an instruction
// over its inputs, or, for a window, as a way of reading its one input.
type member struct {
	fn     tensor.ScalarFn
	window bool
	load   tensor.Load // a window's load of its input
}

// pure reports whether op step i is a kernel a fused set may hold:
// neither a view, nor Impure, nor a Mutator.
func (sc *schedule) pure(i int) bool {
	op := sc.steps[i].node.Op()
	_, impure := op.(graph.Impure)
	_, mutator := op.(graph.Mutator)
	return sc.steps[i].kernel != nil && !impure && !mutator
}

// memberOf reports whether op step i is an element-wise kernel a fused
// set may hold, and how. Its shape is the set's output shape; an operand
// it reads from outside is a load, which reads whatever broadcasts to it.
func (sc *schedule) memberOf(i int) (member, bool) {
	if !sc.pure(i) {
		return member{}, false
	}
	st := &sc.steps[i]
	op := st.node.Op()
	ins := st.node.Inputs()
	if w, ok := op.(graph.Window); ok {
		col, stride, ok := w.Window(ins[0].Shape())
		return member{window: true, load: tensor.Load{Window: true, Col: col, RowStride: stride}}, ok
	}
	pw, ok := op.(graph.Pointwise)
	if !ok {
		return member{}, false
	}
	return member{fn: pw.Pointwise()}, true
}

// fuse is the second pass: every connected set of element-wise steps
// whose values nothing outside the set reads becomes one step with one
// slot, computing the set's one remaining value. Readers are
// counted by the reader rule above. A step joins the set of its readers
// when
//
//   - it is an element-wise kernel (memberOf): graph.Pointwise, or a
//     graph.Window, never Impure or a Mutator — or it is the set's one
//     head (see below);
//   - it is not fetched, and every op step that reads it is in that one
//     set and reads it as a value, not through a window;
//   - it has the set's output shape; and
//   - no update in this plan rewrites a variable it reads between it and
//     the set's output, since its read moves to the output's position in
//     the schedule. (A training plan's updates all follow its forward
//     pass, so its forward products still head sets.)
//
// The head rule: any other kernel that is neither Impure nor a Mutator
// may join a set as its head, when the set has none yet. It runs first,
// into the set's slot, over its own inputs, which never join the set;
// the members then read its value through tensor.Dest. So a GEMM or a
// convolution takes in its bias add and activation, and nothing needs
// to declare that it can. A head alone is never a set.
//
// Steps are decided in reverse schedule order, so a step's readers are
// decided before it. The fused step sits where the set's output did and
// reads the set's operands from outside; every other member's value is
// gone from the plan. Sets of one step stay as they were.
func fuse(sc *schedule) *schedule {
	n := len(sc.steps)
	fetched := make([]bool, n)
	for _, f := range sc.fetchPos {
		fetched[f] = true
	}
	writers := make([][]int, sc.hazards) // the steps rewriting each hazard id, in schedule order
	for i, ws := range sc.writes {
		for _, v := range ws {
			writers[v] = append(writers[v], i)
		}
	}
	rewrittenBetween := func(i, out int) bool {
		for _, r := range sc.reads[i] {
			if !sc.isVar(r) {
				continue
			}
			for _, w := range writers[r] {
				if i < w && w < out {
					return true
				}
			}
		}
		return false
	}
	// group[i] is the position of the set step i belongs to — the set's
	// output — or -1. via[i] is what i's readers, decided first, allow:
	// the one set they all belong to, or noReader or blocked. head[o] is
	// the head of the set whose output is o, or -1.
	const noReader, blocked = -2, -1
	group, via, size, head := make([]int, n), make([]int, n), make([]int, n), make([]int, n)
	for i := range via {
		via[i], head[i] = noReader, -1
	}
	for i := n - 1; i >= 0; i-- {
		group[i] = -1
		m, ok := sc.memberOf(i)
		set := via[i]
		joins := set >= 0 && !fetched[i] && !rewrittenBetween(i, set) &&
			tensor.SameShape(sc.steps[i].node.Shape(), sc.steps[set].node.Shape())
		switch {
		case ok:
			group[i] = i
			if joins {
				group[i] = set
			}
			size[group[i]]++
		case joins && head[set] < 0 && sc.pure(i):
			group[i], head[set] = set, i
			size[set]++
		}
		for _, p := range sc.steps[i].ins {
			switch {
			case !ok || m.window:
				via[p] = blocked
			case via[p] == noReader:
				via[p] = group[i]
			case via[p] != group[i]:
				via[p] = blocked
			}
		}
	}
	sets := make(map[int][]int)
	for i, g := range group {
		if g >= 0 && size[g] > 1 {
			sets[g] = append(sets[g], i)
		}
	}
	if len(sets) == 0 {
		return sc
	}
	steps := make([]planStep, 0, n)
	for i := range sc.steps {
		st := &sc.steps[i]
		switch set, ok := sets[i]; {
		case ok:
			steps = append(steps, sc.fusedStep(set, head[i], group))
		case group[i] < 0 || size[group[i]] < 2:
			steps = append(steps, planStep{node: st.node, kind: st.kind, nodes: st.nodes})
		}
	}
	fetches := make([]*graph.Node, len(sc.fetchPos))
	for j, f := range sc.fetchPos {
		fetches[j] = sc.steps[f].node
	}
	return analyze(steps, fetches)
}

// fusedStep builds the step of one fused set, given its members'
// positions in schedule order (its output last) and its head's, or -1.
// The head's inputs are the first operands. Loads come first: the
// head's value, each window, and each distinct value a member reads
// from outside the set; then one instruction per other member.
func (sc *schedule) fusedStep(set []int, head int, group []int) planStep {
	out := set[len(set)-1]
	f := &fusedStep{class: graph.ClassElementwise}
	slot := make(map[int]int, len(set)) // a member's position → the slot holding its value
	loads := map[tensor.Load]int{}
	operand := map[int]int{} // an outside value's position → its input index
	slotOf := func(l tensor.Load) int {
		s, ok := loads[l]
		if !ok {
			s = len(f.prog.Loads)
			loads[l] = s
			f.prog.Loads = append(f.prog.Loads, l)
		}
		return s
	}
	load := func(p int, l tensor.Load) int {
		j, ok := operand[p]
		if !ok {
			j = len(f.operands)
			operand[p] = j
			f.operands = append(f.operands, sc.steps[p].node)
		}
		l.In = j
		return slotOf(l)
	}
	if head >= 0 {
		hs := &sc.steps[head]
		f.head, f.arity, f.class = hs.kernel, len(hs.ins), hs.node.Op().Class()
		for _, p := range hs.ins { // every input in order, repeats too: the head reads in[:arity]
			if _, ok := operand[p]; !ok {
				operand[p] = len(f.operands)
			}
			f.operands = append(f.operands, sc.steps[p].node)
		}
		slot[head] = slotOf(tensor.Load{In: tensor.Dest})
		// The head leads the member list, as it runs first.
		order := []int{head}
		for _, i := range set {
			if i != head {
				order = append(order, i)
			}
		}
		set = order
	}
	nodes := make([]*graph.Node, len(set))
	names := make([]string, len(set))
	members := make([]member, len(set))
	inSet := func(p int) bool { return group[p] == out }
	for k, i := range set {
		st := &sc.steps[i]
		nodes[k], names[k] = st.node, st.node.OpName()
		if i == head {
			continue
		}
		members[k], _ = sc.memberOf(i)
		if m := members[k]; m.window {
			slot[i] = load(st.ins[0], m.load)
			continue
		}
		for _, p := range st.ins {
			if !inSet(p) {
				load(p, tensor.Load{})
			}
		}
	}
	arg := func(p int) int {
		if inSet(p) {
			return slot[p]
		}
		return load(p, tensor.Load{})
	}
	for k, i := range set {
		st := &sc.steps[i]
		m := members[k]
		if m.window || i == head {
			continue
		}
		args := make([]int, len(st.ins))
		for j, p := range st.ins {
			args[j] = arg(p)
		}
		f.prog, slot[i] = f.prog.Emit(m.fn, args...)
	}
	f.name = strings.Join(names, "+")
	return planStep{node: sc.steps[out].node, kind: graph.KindOp, nodes: nodes, fused: f}
}

// liveness is the third pass. slotEnd[r] is the schedule position
// after which slot r's floats are dead — the last use of any value that
// references it, at least r — and 0 where step r owns no slot. A slot
// reachable from a fetch is pinned for the whole run (position
// len(steps)) and that fetch is cloned on the way out (fetchCopy).
func liveness(sc *schedule) (slotEnd []int, fetchCopy []bool) {
	n := len(sc.steps)
	lastUse := make([]int, n)
	for i := range sc.steps {
		lastUse[i] = i
		for _, p := range sc.steps[i].ins {
			lastUse[p] = i
		}
	}
	slotEnd = make([]int, n)
	for i, set := range sc.roots {
		for _, r := range set {
			if sc.isSlot(r) && lastUse[i] > slotEnd[r] {
				slotEnd[r] = lastUse[i]
			}
		}
	}
	fetchCopy = make([]bool, len(sc.fetchPos))
	for j, i := range sc.fetchPos {
		for _, r := range sc.roots[i] {
			if sc.isSlot(r) {
				slotEnd[r] = n
				fetchCopy[j] = true
			}
		}
	}
	return slotEnd, fetchCopy
}

// edgeSet is the inter-op scheduling structure over op steps: what the
// parallel scheduler drains and the makespan simulation replays.
// Non-op steps carry no work, resolve before the parallel phase and
// take no edges. All edges point forward in schedule order, so the
// structure is acyclic by construction.
type edgeSet struct {
	succs [][]int32 // scheduling successors of each step
	preds [][]int32 // scheduling predecessors (mirror of succs)
	// predsCP excludes the slab's anti-dependency edges: the semantic
	// constraints (data, variable hazard, serial Impure lane) that any
	// slab layout must respect. Critical paths are computed over
	// these, so the reported achievable speedup is width-independent;
	// the makespan simulation uses the full preds, which do include
	// the anti-dependency resource constraints of this plan.
	predsCP [][]int32
	indeg   []int32 // scheduling in-degree of each step
	edges   int     // scheduling edges (incl. hazard/serial/anti)

	// Compile-time only. Edges into one target are added in a burst
	// (constrain's walk reaches it, later assign places it over earlier
	// slots), so "from→to is recorded" is a stamp per source holding
	// the burst's target, re-seeded from preds[to] when the target
	// changes.
	stamp  []int32
	target int
}

func newEdgeSet(n int) *edgeSet {
	return &edgeSet{
		succs: make([][]int32, n), preds: make([][]int32, n), predsCP: make([][]int32, n),
		indeg: make([]int32, n), stamp: make([]int32, n), target: -1,
	}
}

// add records the edge from→to once; from < 0 means "no such step".
func (e *edgeSet) add(from, to int, anti bool) {
	if from < 0 || from == to {
		return
	}
	if e.target != to {
		e.target = to
		for _, p := range e.preds[to] {
			e.stamp[p] = int32(to) + 1
		}
	}
	if e.stamp[from] == int32(to)+1 {
		return
	}
	e.stamp[from] = int32(to) + 1
	e.succs[from] = append(e.succs[from], int32(to))
	e.preds[to] = append(e.preds[to], int32(from))
	if !anti {
		e.predsCP[to] = append(e.predsCP[to], int32(from))
	}
	e.indeg[to]++
	e.edges++
}

// constrain is the fourth pass: the edges that make any worker count
// reproduce sequential execution bit-exactly, in one schedule walk.
// Data edges order an op after its op inputs. Hazard edges serialize
// every access to a mutated node (graph.Mutator — optimizer apply-ops)
// in schedule order: reads since the last write precede the next
// write, and writes precede subsequent reads, so kernels that read a
// variable — directly or through a view — never race its in-place
// update. The Impure chain pins stateful/RNG ops (random sampling,
// dropout's mask handoff, optimizer slot state) to a serial lane keyed
// by graph order, which is what keeps WithSeed replay identical across
// inter-op worker counts.
func constrain(sc *schedule) *edgeSet {
	e := newEdgeSet(len(sc.steps))
	lastWrite := make([]int, sc.hazards)
	for v := range lastWrite {
		lastWrite[v] = -1
	}
	readsSince := make([][]int, sc.hazards)
	prevImpure := -1
	for i := range sc.steps {
		st := &sc.steps[i]
		if st.kind != graph.KindOp {
			continue
		}
		for _, p := range st.ins {
			if sc.steps[p].kind == graph.KindOp {
				e.add(p, i, false)
			}
		}
		for _, v := range sc.reads[i] {
			if sc.isVar(v) {
				e.add(lastWrite[v], i, false)
				readsSince[v] = append(readsSince[v], i)
			}
		}
		for _, v := range sc.writes[i] {
			for _, r := range readsSince[v] {
				e.add(r, i, false)
			}
			e.add(lastWrite[v], i, false)
			lastWrite[v] = i
			readsSince[v] = readsSince[v][:0]
		}
		if _, ok := st.node.Op().(graph.Impure); ok {
			e.add(prevImpure, i, false)
			prevImpure = i
		}
	}
	return e
}

// ancestorCap bounds the plans assign builds ancestor bitsets for
// (n² bits); larger plans fall back to maximal sharing.
const ancestorCap = 8192

// ancestry holds, for each op step, the set of steps that reach it
// through scheduling edges.
type ancestry struct {
	bits  []uint64
	words int
}

func newAncestry(e *edgeSet) ancestry {
	n := len(e.preds)
	a := ancestry{words: (n + 63) / 64}
	a.bits = make([]uint64, n*a.words)
	for i, preds := range e.preds {
		row := a.bits[i*a.words : (i+1)*a.words]
		for _, p32 := range preds {
			p := int(p32)
			row[p/64] |= 1 << uint(p%64)
			for w, pw := range a.bits[p*a.words : (p+1)*a.words] {
				row[w] |= pw
			}
		}
	}
	return a
}

func (a ancestry) has(anc, of int) bool {
	return a.bits[of*a.words+anc/64]&(1<<uint(anc%64)) != 0
}

// slabAlign is the alignment of a slot's offset in the slab, in floats:
// 64 bytes.
const slabAlign = 16

func alignUp(n int) int { return (n + slabAlign - 1) / slabAlign * slabAlign }

// assign is the fifth pass: it places every kernel slot at an offset in
// the session's slab, greedy by size — largest first, ties in schedule
// order, so the offsets are a pure function of the plan — each at the
// first aligned offset whose range meets no slot it conflicts with. A
// slot conflicts with every slot whose lifetime, from its step to
// slotEnd inclusive, meets its own, so a step's destination never
// overlaps an input that dies at that step. It sets each kernel step's
// offset and every op step's guard read set, and reports how many slots
// it placed, how many of them sit on floats no earlier slot of the plan
// used, and the slab floats the plan needs with and without sharing.
//
// Completion-count gating: when slot s overlaps slot p that died
// earlier, sequential execution is safe because s runs after p's last
// reader by position; under parallel execution that ordering must be
// explicit. Two strategies, by session width:
//
//   - interOp == 1 (and plans too large for ancestor bitsets):
//     maximal sharing, with anti-dependency edges to s from the last
//     earlier slot on each float of its range and that slot's readers.
//     Transitively (each slot waits for the previous holder of its floats
//     and that holder's readers) every float's access history stays
//     sequential.
//   - interOp > 1: parallelism-aware sharing — two slots conflict unless
//     the earlier one and all of its readers are already ancestors of
//     the later one through constrain's edges, so sharing never
//     serializes independent branches (more memory, no lost
//     concurrency).
func assign(sc *schedule, slotEnd []int, e *edgeSet, interOp int) (slots, buffers, floats, unshared int) {
	n := len(sc.steps)
	// readers[sl]: every op step whose inputs may reference slot sl's
	// value (via views included) — the completion set that gates
	// sharing sl's floats under parallel execution, and step i's
	// guard read set the other way round.
	readers := make([][]int32, n)
	for i, set := range sc.reads {
		for _, sl := range set {
			if sc.isSlot(sl) {
				readers[sl] = append(readers[sl], int32(i))
				sc.steps[i].readSlots = append(sc.steps[i].readSlots, &sc.steps[sl])
			}
		}
	}
	var anc ancestry
	useAnc := interOp > 1 && n <= ancestorCap
	if useAnc {
		anc = newAncestry(e)
	}
	// orderedBefore reports whether every access to slot sl is already
	// ordered before step i by existing scheduling edges.
	orderedBefore := func(sl, i int) bool {
		if !anc.has(sl, i) {
			return false
		}
		for _, r := range readers[sl] {
			if int(r) != i && !anc.has(int(r), i) {
				return false
			}
		}
		return true
	}
	// apart reports whether slots a < b may share floats.
	apart := func(a, b int) bool { return slotEnd[a] < b && (!useAnc || orderedBefore(a, b)) }

	var order []int // the slots in schedule order
	size := make([]int, n)
	for i := range sc.steps {
		if sc.steps[i].kernel != nil {
			order = append(order, i)
			size[i] = tensor.SizeOf(sc.steps[i].node.Shape())
			unshared += alignUp(size[i])
		}
	}
	bySize := slices.Clone(order)
	slices.SortStableFunc(bySize, func(a, b int) int { return size[b] - size[a] })
	offs := make([]int, n)
	placed := make([]int, 0, len(order)) // by offset
	for _, s := range bySize {
		off := 0
		// Past off+size[s], no placed slot can move off any more.
		for _, p := range placed {
			if offs[p] >= off+size[s] {
				break
			}
			if end := offs[p] + alignUp(size[p]); end > off && !apart(min(p, s), max(p, s)) {
				off = end
			}
		}
		offs[s], sc.steps[s].off = off, off
		floats = max(floats, off+size[s])
		k, _ := slices.BinarySearchFunc(placed, off, func(p, off int) int { return offs[p] - off })
		placed = slices.Insert(placed, k, s)
	}

	// Walk the slots in schedule order over owner, the last slot (plus
	// one) on each aligned block of the slab: a slot on an owned block
	// reuses floats, and at inter-op 1 waits for the owner.
	owner := make([]int32, (floats+slabAlign-1)/slabAlign)
	for _, s := range order {
		reused, prev := false, int32(0)
		for b := offs[s] / slabAlign; b < (offs[s]+size[s]+slabAlign-1)/slabAlign; b++ {
			if p := owner[b]; p != 0 {
				if p != prev && !useAnc {
					e.add(int(p-1), s, true)
					for _, r := range readers[p-1] {
						e.add(int(r), s, true)
					}
				}
				reused, prev = true, p
			}
			owner[b] = int32(s + 1)
		}
		if !reused {
			buffers++
		}
	}
	return len(order), buffers, floats, unshared
}

// bind points every kernel step of the plan at its range of slab —
// three-index, so a kernel cannot reach its neighbour's range — and
// drops the last run's values and gathered inputs, which may view a
// slab the plan no longer uses.
func (p *Plan) bind(slab []float32) {
	clear(p.values)
	for i := range p.steps {
		st := &p.steps[i]
		clear(st.in)
		if st.kernel != nil {
			end := st.off + tensor.SizeOf(st.node.Shape())
			st.out = tensor.FromSlice(slab[st.off:end:end], st.node.Shape()...)
		}
	}
}

// compile builds the execution plan of a fetch set from the five
// passes, then ranks the ready queue by unit-weight height.
func (s *Session) compile(fetches []*graph.Node) *Plan {
	sc := newSchedule(fetches)
	if !s.unfused {
		sc = fuse(sc)
	}
	slotEnd, fetchCopy := liveness(sc)
	edges := constrain(sc)
	slots, buffers, floats, unshared := assign(sc, slotEnd, edges, s.interOp)
	edges.stamp = nil
	n := len(sc.steps)
	plan := &Plan{
		steps: sc.steps, values: make([]*tensor.Tensor, n),
		fetchPos: sc.fetchPos, fetchCopy: fetchCopy,
		slots: slots, buffers: buffers, nOps: sc.nOps, edgeSet: *edges,
		prio: make([]int64, n), indegRun: make([]int32, n),
		finish: make([]time.Duration, n), cp: make([]time.Duration, n),
		timing: make([]opTiming, n),
	}
	plan.rank(nil)
	// Plans of one session never run at once: all of them share its one
	// slab, and a larger plan moves every cached plan to a larger slab.
	if s.arena.Fit(floats, unshared) {
		for _, p := range s.planCache {
			p.bind(s.arena.Slab())
		}
	}
	plan.bind(s.arena.Slab())
	return plan
}
