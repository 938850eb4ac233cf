package runtime

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/models/nn"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// at returns nd's schedule position.
func (sc *schedule) at(t *testing.T, nd *graph.Node) int {
	t.Helper()
	for i := range sc.steps {
		if sc.steps[i].node == nd {
			return i
		}
	}
	t.Fatalf("%v is not scheduled", nd)
	return -1
}

// positions maps nodes to a sorted root set.
func (sc *schedule) positions(t *testing.T, nodes ...*graph.Node) rootSet {
	t.Helper()
	var set rootSet
	for _, nd := range nodes {
		set = union(set, rootSet{int32(sc.at(t, nd))})
	}
	return set
}

func TestUnion(t *testing.T) {
	for _, c := range []struct{ a, b, want rootSet }{
		{nil, nil, nil},
		{rootSet{3}, nil, rootSet{3}},
		{nil, rootSet{1, 4}, rootSet{1, 4}},
		{rootSet{1, 4}, rootSet{1, 4}, rootSet{1, 4}},
		{rootSet{1, 5, 9}, rootSet{2, 5, 7, 11}, rootSet{1, 2, 5, 7, 9, 11}},
	} {
		if got := union(c.a, c.b); !reflect.DeepEqual(got, c.want) {
			t.Errorf("union(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// viewGraph is the shape the root rule exists for: a slot-backed
// product and a variable, each seen again through a chain of views.
func viewGraph() (g *graph.Graph, x, w, mm, view, wview, side *graph.Node) {
	g = graph.New()
	x = g.Placeholder("x", 4, 4)
	w = g.Variable("w", tensor.Full(0.2, 4, 4))
	mm = ops.MatMul(x, w)
	view = ops.Identity(ops.Reshape(mm, 2, 8))
	wview = ops.Reshape(w, 4, 4)
	side = ops.MatMul(x, wview)
	return
}

// TestSchedulePass: who owns storage and who may carry a view of it.
func TestSchedulePass(t *testing.T) {
	_, x, w, mm, view, wview, side := viewGraph()
	sc := newSchedule([]*graph.Node{view, side})
	if sc.nOps != 5 || sc.hazards != len(sc.steps) {
		t.Fatalf("nOps %d hazards %d over %d steps", sc.nOps, sc.hazards, len(sc.steps))
	}
	for _, c := range []struct {
		name  string
		node  *graph.Node
		slot  bool
		roots []*graph.Node
		reads []*graph.Node
	}{
		{"feed owns nothing", x, false, nil, nil},
		{"variable owns its tensor", w, false, []*graph.Node{w}, nil},
		{"kernel owns its slot", mm, true, []*graph.Node{mm}, []*graph.Node{w}},
		{"view chain carries the slot", view, false, []*graph.Node{mm}, []*graph.Node{mm}},
		{"view of a variable carries it", wview, false, []*graph.Node{w}, []*graph.Node{w}},
		{"kernel over a view reads the variable", side, true, []*graph.Node{side}, []*graph.Node{w}},
	} {
		i := sc.at(t, c.node)
		if got := sc.isSlot(int32(i)); got != c.slot {
			t.Errorf("%s: owns a slot = %t, want %t", c.name, got, c.slot)
		}
		if want := sc.positions(t, c.roots...); !reflect.DeepEqual(sc.roots[i], want) {
			t.Errorf("%s: roots %v, want %v", c.name, sc.roots[i], want)
		}
		if want := sc.positions(t, c.reads...); !reflect.DeepEqual(sc.reads[i], want) {
			t.Errorf("%s: reads %v, want %v", c.name, sc.reads[i], want)
		}
	}
	if want := []int{sc.at(t, view), sc.at(t, side)}; !reflect.DeepEqual(sc.fetchPos, want) {
		t.Errorf("fetchPos %v, want %v", sc.fetchPos, want)
	}

	// A mutated node nothing scheduled reads gets a hazard id past the
	// steps; the same node mutated twice gets the same id.
	g := graph.New()
	v := g.Variable("v", tensor.New(2))
	u1 := ops.ApplySGD(v, g.Const("g1", tensor.Ones(2)), 1)
	u2 := ops.ApplySGD(v, g.Const("g2", tensor.Ones(2)), 1)
	sc = newSchedule([]*graph.Node{u1, u2})
	n := int32(len(sc.steps))
	w1, w2 := sc.writes[sc.at(t, u1)], sc.writes[sc.at(t, u2)]
	if sc.hazards != int(n)+1 || !reflect.DeepEqual(w1, []int32{n}) || !reflect.DeepEqual(w2, []int32{n}) {
		t.Errorf("off-schedule variable: hazards %d writes %v %v, want %d [%d] [%d]", sc.hazards, w1, w2, n+1, n, n)
	}
}

// TestLivenessPass: a slot lives until the last use of anything that
// may reference it, and for the whole run once a fetch can reach it.
func TestLivenessPass(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x", 4, 4)
	a := ops.Relu(x)
	av := ops.Reshape(a, 2, 8) // a's slot, seen through a view
	b := ops.Square(a)
	r := ops.Relu(av) // last reader of a's slot
	d := ops.Add(ops.Reshape(b, 2, 8), r)
	dv := ops.Identity(d) // fetched view of d's slot
	sc := newSchedule([]*graph.Node{dv, x})
	slotEnd, fetchCopy := liveness(sc)
	n := len(sc.steps)
	for _, c := range []struct {
		name string
		node *graph.Node
		want int
	}{
		{"feed", x, 0},
		{"view owns no slot", av, 0},
		{"slot read through a view", a, sc.at(t, r)},
		{"slot read through a view by the sink", b, sc.at(t, d)},
		{"slot read directly", r, sc.at(t, d)},
		{"slot a fetch reaches through a view", d, n},
	} {
		if got := slotEnd[sc.at(t, c.node)]; got != c.want {
			t.Errorf("%s: slotEnd = %d, want %d (of %d)", c.name, got, c.want, n)
		}
	}
	if want := []bool{true, false}; !reflect.DeepEqual(fetchCopy, want) {
		t.Errorf("fetchCopy %v, want %v: a view of a slot is cloned, a feed is not", fetchCopy, want)
	}
}

// TestLivenessFreesGradientAtItsUpdate: an optimizer update and the
// group that joins the updates return fresh scalars, so a fetched train
// op references no gradient and each gradient's buffer dies at its
// update — not at the end of the plan, as when those ops were taken to
// carry a view of their input.
func TestLivenessFreesGradientAtItsUpdate(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x", 4, 4)
	w1 := g.Variable("w1", tensor.Full(0.1, 4, 4))
	w2 := g.Variable("w2", tensor.Full(0.2, 4, 4))
	loss := ops.Sum(ops.MatMul(ops.MatMul(x, w1), w2))
	grads, err := graph.Gradients(loss, []*graph.Node{w1, w2})
	if err != nil {
		t.Fatal(err)
	}
	u1 := ops.ApplySGD(w1, grads[0], 0.1)
	u2 := ops.ApplySGD(w2, grads[1], 0.1)
	train := ops.Group(g, u1, u2)
	sc := newSchedule([]*graph.Node{loss, train})
	slotEnd, fetchCopy := liveness(sc)
	n := len(sc.steps)
	for _, c := range []struct {
		name string
		node *graph.Node
		want int
	}{
		{"gradient of w1", grads[0], sc.at(t, u1)},
		{"gradient of w2", grads[1], sc.at(t, u2)},
		{"update of w1", u1, sc.at(t, train)},
		{"fetched loss", loss, n},
		{"fetched train op", train, n},
	} {
		if got := slotEnd[sc.at(t, c.node)]; got != c.want {
			t.Errorf("%s: slotEnd = %d, want %d (of %d)", c.name, got, c.want, n)
		}
	}
	if !fetchCopy[0] || !fetchCopy[1] {
		t.Errorf("fetchCopy %v: both fetches sit in slots", fetchCopy)
	}
}

// edgeList renders an edge set as sorted "from>to" node-name pairs.
func edgeList(sc *schedule, e *edgeSet, cp bool) []string {
	name := func(i int32) string { return fmt.Sprintf("%s#%d", sc.steps[i].node.OpName(), sc.steps[i].node.ID()) }
	var out []string
	preds := e.preds
	if cp {
		preds = e.predsCP
	}
	for to, ps := range preds {
		for _, from := range ps {
			out = append(out, name(from)+">"+name(int32(to)))
		}
	}
	sort.Strings(out)
	return out
}

// TestConstrainPass: exactly the data, hazard and serial-lane edges, each
// once.
func TestConstrainPass(t *testing.T) {
	pair := func(from, to *graph.Node) string {
		return fmt.Sprintf("%s#%d>%s#%d", from.OpName(), from.ID(), to.OpName(), to.ID())
	}
	t.Run("variable read through a view, then mutated", func(t *testing.T) {
		g, _, w, mm, view, wview, side := viewGraph()
		up := ops.ApplySGD(w, g.Const("grad", tensor.Ones(4, 4)), 0.1)
		again := ops.ApplySGD(w, g.Const("grad2", tensor.Ones(4, 4)), 0.1)
		after := ops.MatMul(ops.Relu(side), wview) // scheduled after both updates
		sc := newSchedule([]*graph.Node{view, side, up, again, after})
		e := constrain(sc)
		want := []string{
			pair(mm, view.Inputs()[0]), pair(view.Inputs()[0], view), pair(wview, side), // data
			pair(side, after.Inputs()[0]), pair(after.Inputs()[0], after), pair(wview, after), // data
			pair(mm, up), pair(wview, up), pair(side, up), // read before write (wview carries w)
			pair(up, again),    // write before write; also the Impure lane, recorded once
			pair(again, after), // write before read
		}
		sort.Strings(want)
		if got := edgeList(sc, e, false); !reflect.DeepEqual(got, want) {
			t.Errorf("edges\n got %v\nwant %v", got, want)
		}
		if e.edges != len(want) {
			t.Errorf("edge count %d, want %d", e.edges, len(want))
		}
	})
	t.Run("two Impure ops around an independent branch", func(t *testing.T) {
		g := graph.New()
		x := g.Placeholder("x", 4, 4)
		r1 := ops.RandomUniform(g, 4, 4)
		b1 := ops.Relu(x)
		b2 := ops.Square(b1)
		r2 := ops.RandomUniform(g, 4, 4)
		s1 := ops.Add(r1, b2)
		y := ops.Add(s1, r2)
		sc := newSchedule([]*graph.Node{y})
		e := constrain(sc)
		want := []string{pair(r1, r2), pair(b1, b2), pair(r1, s1), pair(b2, s1), pair(s1, y), pair(r2, y)}
		sort.Strings(want)
		if got := edgeList(sc, e, false); !reflect.DeepEqual(got, want) {
			t.Errorf("edges\n got %v\nwant %v: the branch takes no serial-lane edge", got, want)
		}
		if !reflect.DeepEqual(edgeList(sc, e, true), want) {
			t.Error("constrain records no anti-dependency edge: predsCP must equal preds")
		}
	})
}

// TestAssignPass: where the slots land in the slab. A diamond whose arms
// share floats at inter-op 1, where sharing is maximal and
// anti-dependency edges serialize it, and keep apart at inter-op 4,
// where two slots share only when the later one already follows every
// access to the earlier; and a chain of uneven sizes, placed largest
// first at 16-float (64-byte) offsets.
func TestAssignPass(t *testing.T) {
	diamond := func() (*schedule, []*graph.Node) {
		g := graph.New()
		x := g.Placeholder("x", 8, 8)
		a := ops.Relu(x)
		l1 := ops.Square(a)
		l2 := ops.Relu(l1)
		r1 := ops.Relu(a)
		r2 := ops.Square(r1)
		y := ops.Add(l2, r2)
		return newSchedule([]*graph.Node{y}), []*graph.Node{a, l1, l2, r1, r2, y}
	}
	uneven := func() (*schedule, []*graph.Node) {
		g := graph.New()
		a := ops.Relu(g.Placeholder("x", 3, 5))                     // 15 floats
		b := ops.MatMul(a, g.Variable("w", tensor.Full(0.1, 5, 7))) // 21
		c := ops.Relu(b)                                            // 21
		y := ops.MatMul(c, g.Variable("v", tensor.Full(0.2, 7, 5))) // 15
		return newSchedule([]*graph.Node{y}), []*graph.Node{a, b, c, y}
	}
	for _, c := range []struct {
		name                   string
		build                  func() (*schedule, []*graph.Node)
		interOp                int
		offs                   []int // of the nodes build returns
		slots, buffers, floats int
		anti                   int // anti-dependency edges added
	}{
		// r1 takes l1's floats (new edges from l1 and its reader l2), r2
		// takes a's (from a and its reader l1; r1→r2 is a data edge
		// already), y takes r1's (from r1; r2→y likewise).
		{"diamond", diamond, 1, []int{0, 64, 128, 64, 0, 64}, 6, 3, 192, 5},
		// Only y follows every access to a dead slot: a's, l1's and r1's.
		// The first fit among them is a's.
		{"diamond", diamond, 4, []int{0, 64, 128, 192, 256, 0}, 6, 5, 320, 0},
		// b goes first, at 0; c meets b's lifetime, so it goes to 32, the
		// aligned end of b's 21 floats; a meets b only and fits at 32
		// before c is written; y meets c only and fits at 0. c waits for a
		// (c→b is a data edge already) and y for b (and b's reader c).
		{"uneven", uneven, 1, []int{32, 0, 32, 0}, 4, 2, 53, 2},
	} {
		sc, nodes := c.build()
		slotEnd, _ := liveness(sc)
		e := constrain(sc)
		before := e.edges
		slots, buffers, floats, unshared := assign(sc, slotEnd, e, c.interOp)
		var got []int
		wantUnshared := 0
		for _, nd := range nodes {
			got = append(got, sc.steps[sc.at(t, nd)].off)
			wantUnshared += alignUp(tensor.SizeOf(nd.Shape()))
		}
		label := fmt.Sprintf("%s at inter-op %d", c.name, c.interOp)
		if !reflect.DeepEqual(got, c.offs) || slots != c.slots || buffers != c.buffers || floats != c.floats {
			t.Errorf("%s: offsets %v (%d slots, %d buffers, %d floats), want %v (%d, %d, %d)",
				label, got, slots, buffers, floats, c.offs, c.slots, c.buffers, c.floats)
		}
		if unshared != wantUnshared {
			t.Errorf("%s: %d unshared floats, want %d", label, unshared, wantUnshared)
		}
		if anti := e.edges - before; anti != c.anti {
			t.Errorf("%s: %d anti-dependency edges, want %d", label, anti, c.anti)
		}
		if y := sc.at(t, nodes[len(nodes)-1]); c.name == "diamond" && len(sc.steps[y].readSlots) != 2 {
			t.Errorf("%s: sink reads %d slots, want 2", label, len(sc.steps[y].readSlots))
		}
	}
}

// slabRange is where a slot's floats sit, in bytes from address 0; an
// empty slot has an empty range.
func slabRange(st *planStep) (lo, hi uintptr) {
	d := st.out.Data()
	if len(d) == 0 {
		return 0, 0
	}
	lo = uintptr(unsafe.Pointer(&d[0]))
	return lo, lo + uintptr(len(d))*4
}

// rangesMeet reports whether two slots share a float.
func rangesMeet(a, b *planStep) bool {
	alo, ahi := slabRange(a)
	blo, bhi := slabRange(b)
	return alo < bhi && blo < ahi
}

// checkPlan states what every compiled plan must satisfy, from an
// analysis of its own (sets as maps, reachability by closure) so it
// does not inherit a mistake of the passes:
//
//   - every scheduling edge points forward;
//   - every op step owns a slot or is a graph.ViewOp, never both;
//   - no step's destination shares a float with anything its inputs
//     may reference;
//   - a slot a fetch may reference is cloned on fetch, and no slot after
//     it shares a float with it;
//   - no two slots' ranges of the slab overlap unless one slot and all
//     its readers come before the other, by position and through
//     scheduling edges (anti-dependency edges at inter-op 1, ancestry
//     above);
//   - no step and no fetch references a value fusion absorbed: a fused
//     step's members other than its output are computed by no step and
//     read by none, and every step reads exactly the values its node —
//     or, fused, its members — reads from outside it;
//   - a fused step has at most one head, and the head's inputs are the
//     step's first operands.
func checkPlan(p *Plan) error {
	if err := checkFusion(p); err != nil {
		return err
	}
	n := len(p.steps)
	// reach[i][j]: step j reaches step i through scheduling edges.
	words := (n + 63) / 64
	reach := make([][]uint64, n)
	for i := range reach {
		reach[i] = make([]uint64, words)
	}
	for i := 0; i < n; i++ {
		for _, sc := range p.succs[i] {
			if int(sc) <= i {
				return fmt.Errorf("edge %d→%d does not point forward", i, sc)
			}
		}
		for _, pr := range p.preds[i] {
			reach[i][pr/64] |= 1 << uint(pr%64)
			for w := range reach[i] {
				reach[i][w] |= reach[pr][w]
			}
		}
	}
	reaches := func(from, to int) bool { return reach[to][from/64]&(1<<uint(from%64)) != 0 }

	// slots[i]: the slot-owning steps step i's value references.
	slots := make([]map[int]bool, n)
	readers := make([][]int, n)
	for i := range p.steps {
		st := &p.steps[i]
		slots[i] = map[int]bool{}
		if st.kind != graph.KindOp {
			continue
		}
		reads := map[int]bool{}
		for _, in := range st.ins {
			for sl := range slots[in] {
				reads[sl] = true
			}
		}
		for sl := range reads {
			readers[sl] = append(readers[sl], i)
			if st.out != nil && rangesMeet(st, &p.steps[sl]) {
				return fmt.Errorf("step %d (%v) writes floats of slot %d, which its inputs may reference", i, st.node, sl)
			}
		}
		_, isView := st.node.Op().(graph.ViewOp)
		if isView == (st.out != nil) {
			return fmt.Errorf("step %d (%v): view %t, owns a slot %t", i, st.node, isView, st.out != nil)
		}
		if isView {
			slots[i] = slots[st.ins[0]]
		} else {
			slots[i][i] = true
		}
	}
	pinned := map[int]bool{}
	for j, f := range p.fetchPos {
		if (len(slots[f]) > 0) != p.fetchCopy[j] {
			return fmt.Errorf("fetch %d may reference slots %v but fetchCopy is %t", j, slots[f], p.fetchCopy[j])
		}
		for sl := range slots[f] {
			pinned[sl] = true
		}
	}
	for b := range p.steps {
		if p.steps[b].out == nil {
			continue
		}
		for a := 0; a < b; a++ {
			if p.steps[a].out == nil || !rangesMeet(&p.steps[a], &p.steps[b]) {
				continue
			}
			if pinned[a] {
				return fmt.Errorf("slot %d is reachable from a fetch but slot %d shares its floats", a, b)
			}
			for _, acc := range append([]int{a}, readers[a]...) {
				if acc >= b || !reaches(acc, b) {
					return fmt.Errorf("slot %d shares floats with slot %d but is not ordered after step %d, which accesses them", b, a, acc)
				}
			}
		}
	}
	return nil
}

// checkFusion is checkPlan's fusion clause.
func checkFusion(p *Plan) error {
	absorbed := map[*graph.Node]int{} // a member fused away → its step
	for i := range p.steps {
		nodes := p.steps[i].nodes
		if len(nodes) == 0 || nodes[len(nodes)-1] != p.steps[i].node {
			return fmt.Errorf("step %d (%v) does not end its member list %v", i, p.steps[i].node, nodes)
		}
		for _, m := range nodes[:len(nodes)-1] {
			absorbed[m] = i
		}
	}
	for i := range p.steps {
		st := &p.steps[i]
		if f, ok := absorbed[st.node]; ok {
			return fmt.Errorf("step %d computes %v, which step %d absorbed", i, st.node, f)
		}
		if st.kind != graph.KindOp {
			continue
		}
		if err := checkHead(p, i); err != nil {
			return err
		}
		members := map[*graph.Node]bool{}
		for _, m := range st.nodes {
			members[m] = true
		}
		want := map[*graph.Node]bool{}
		for _, m := range st.nodes {
			for _, in := range m.Inputs() {
				if !members[in] {
					want[in] = true
				}
			}
		}
		got := map[*graph.Node]bool{}
		for _, in := range st.ins {
			got[p.steps[in].node] = true
		}
		for in := range want {
			if f, ok := absorbed[in]; ok {
				return fmt.Errorf("step %d (%v) reads %v, which step %d absorbed", i, st.node, in, f)
			}
			if !got[in] {
				return fmt.Errorf("step %d (%v) does not read %v", i, st.node, in)
			}
		}
		if len(got) != len(want) {
			return fmt.Errorf("step %d (%v) reads %d values, its members %d", i, st.node, len(got), len(want))
		}
	}
	for j, f := range p.fetchPos {
		if s, ok := absorbed[p.steps[f].node]; ok {
			return fmt.Errorf("fetch %d is %v, which step %d absorbed", j, p.steps[f].node, s)
		}
	}
	return nil
}

// checkHead is checkFusion's head clause: a fused step holds at most one
// member the block evaluator cannot run — its head, which leads the
// member list — and reads the head's inputs, in order, as its first
// operands.
func checkHead(p *Plan, i int) error {
	st := &p.steps[i]
	f := st.fused
	if f == nil {
		return nil
	}
	for k, m := range st.nodes {
		_, pw := m.Op().(graph.Pointwise)
		_, win := m.Op().(graph.Window)
		if !pw && !win && (k > 0 || f.head == nil) {
			return fmt.Errorf("step %d (%v): member %v is neither element-wise nor the step's head", i, st.node, m)
		}
	}
	if f.head == nil {
		return nil
	}
	ins := st.nodes[0].Inputs()
	if f.arity != len(ins) || len(st.ins) < len(ins) {
		return fmt.Errorf("step %d (%v): head %v has %d inputs, the step %d operands and arity %d", i, st.node, st.nodes[0], len(ins), len(st.ins), f.arity)
	}
	for j, in := range ins {
		if got := p.steps[st.ins[j]].node; got != in {
			return fmt.Errorf("step %d (%v): operand %d is %v, head input %d is %v", i, st.node, j, got, j, in)
		}
	}
	return nil
}

// CheckCachedPlans runs checkPlan over every plan the session has
// compiled — the hook the workload sweep in package runtime_test uses.
func CheckCachedPlans(s *Session) error {
	for _, p := range s.planCache {
		if err := checkPlan(p); err != nil {
			return err
		}
	}
	return nil
}

// TestCheckPlanCatchesBrokenPlans: the verifier is only worth running
// if it fails on the mistakes it names.
func TestCheckPlanCatchesBrokenPlans(t *testing.T) {
	compile := func(interOp int) *Plan {
		g, _, y := buildWide(3, 3)
		return NewSession(g, WithInterOpWorkers(interOp)).Plan([]*graph.Node{y})
	}
	if err := checkPlan(compile(1)); err != nil {
		t.Fatalf("sound plan rejected: %v", err)
	}
	// Drop the anti-dependency edges of an inter-op-1 plan: its maximal
	// reuse is then unordered.
	p := compile(1)
	p.preds = p.predsCP
	if err := checkPlan(p); err == nil {
		t.Error("a plan without its anti-dependency edges passed")
	}
	// Make a step write into its own input's buffer.
	p = compile(4)
	for i := range p.steps {
		if st := &p.steps[i]; st.out != nil && len(st.ins) > 0 && p.steps[st.ins[0]].out != nil {
			st.out = p.steps[st.ins[0]].out
			break
		}
	}
	if err := checkPlan(p); err == nil {
		t.Error("a plan whose step overwrites its input passed")
	}
	p = compile(4)
	p.fetchCopy[0] = false
	if err := checkPlan(p); err == nil {
		t.Error("a plan returning slab memory from Run passed")
	}
	// Take a kernel step's slot away.
	p = compile(1)
	for i := range p.steps {
		if st := &p.steps[i]; st.out != nil {
			st.out = nil
			break
		}
	}
	if err := checkPlan(p); err == nil {
		t.Error("a plan with a kernel step that owns no slot passed")
	}
	// Let a fused step claim a value another step still computes and it
	// reads.
	g, fetches := cellTail()
	p = NewSession(g).Plan(fetches)
	if err := checkPlan(p); err != nil {
		t.Fatalf("sound fused plan rejected: %v", err)
	}
	for i := range p.steps {
		if st := &p.steps[i]; st.fused != nil {
			st.nodes = append([]*graph.Node{p.steps[st.ins[0]].node}, st.nodes...)
			break
		}
	}
	if err := checkPlan(p); err == nil {
		t.Error("a plan with a step reading a value fusion absorbed passed")
	}
	// Move a headed step's head inputs away from its first operands.
	p = NewSession(g).Plan(fetches)
	for i := range p.steps {
		if st := &p.steps[i]; st.fused != nil && st.fused.head != nil {
			last := len(st.ins) - 1
			st.ins[0], st.ins[last] = st.ins[last], st.ins[0]
			break
		}
	}
	if err := checkPlan(p); err == nil {
		t.Error("a plan whose head does not read the step's first operands passed")
	}
}

// FuzzPlanCompile: for any random training graph and width, compile
// does not panic, the plan satisfies checkPlan, and a parallel run's
// fetches and variables equal the sequential session's bit for bit, as
// do an unfused session's. Each session compiles the loss alone and then
// the full fetch set, a larger plan that moves both to a larger slab,
// and runs the two in turn under a BufferGuard: two plans on one slab.
func FuzzPlanCompile(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(4))
	f.Add(int64(7), uint8(40), uint8(2))
	f.Add(int64(23), uint8(0), uint8(1))
	f.Add(int64(-5), uint8(63), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, size, interOp uint8) {
		n, width := int(size%64), 1+int(interOp%8)
		type arm struct {
			g     *graph.Graph
			x     *graph.Node
			sets  [][]*graph.Node // the loss alone, then every fetch
			s     *Session
			guard *tensor.BufferGuard
			label string
		}
		var arms []*arm
		for _, c := range []struct {
			label string
			opts  []Option
		}{
			{"inter-op 1", nil},
			{fmt.Sprintf("inter-op %d", width), []Option{WithInterOpWorkers(width)}},
			{"unfused", []Option{WithUnfusedPlans()}},
		} {
			g, x, fetches := randomDAG(seed, n)
			s := NewSession(g, append([]Option{WithSeed(seed)}, c.opts...)...)
			defer s.Close()
			s.SetTraining(true)
			a := &arm{g: g, x: x, sets: [][]*graph.Node{fetches[:1], fetches}, s: s, guard: tensor.NewBufferGuard(), label: c.label}
			s.Arena().SetGuard(a.guard)
			for _, fs := range a.sets {
				s.Plan(fs)
			}
			// Checked once both are compiled: the first plan now lives on
			// the slab the second sized.
			for _, fs := range a.sets {
				if err := checkPlan(s.Plan(fs)); err != nil {
					t.Fatalf("%s: %v", c.label, err)
				}
			}
			arms = append(arms, a)
		}
		for run := 0; run < 2; run++ {
			for k := range arms[0].sets {
				var want []*tensor.Tensor
				for i, a := range arms {
					got, err := a.s.Run(a.sets[k], Feeds{a.x: tensor.Full(0.3, 4, 6)})
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						want = got
						continue
					}
					assertSameTensors(t, fmt.Sprintf("run %d fetch set %d, %s", run, k, a.label), got, want)
				}
			}
		}
		for i, a := range arms {
			if v := a.guard.Violations(); len(v) != 0 {
				t.Fatalf("%s: guard violations: %v", a.label, v)
			}
			if i > 0 {
				assertSameVariables(t, arms[0].g, a.g)
			}
		}
	})
}

// cellTail is one nn.LSTMCell step as seq2seq builds it — two gate
// GEMMs, their sum and bias add, and the gates' element-wise tail —
// fetching the next hidden and cell state, as the next step reads both.
func cellTail() (*graph.Graph, []*graph.Node) {
	g := graph.New()
	x, h, cs := g.Placeholder("x", 4, 8), g.Placeholder("h", 4, 16), g.Placeholder("cs", 4, 16)
	hNext, csNext := nn.NewLSTMCell(g, rand.New(rand.NewSource(3)), "cell", 8, 16).Step(x, h, cs)
	return g, []*graph.Node{hNext, csNext}
}

// feedAll feeds every placeholder of g seeded normal data.
func feedAll(g *graph.Graph, seed int64) Feeds {
	rng := rand.New(rand.NewSource(seed))
	feeds := Feeds{}
	for _, nd := range g.Nodes() {
		if nd.Kind() == graph.KindPlaceholder {
			feeds[nd] = tensor.RandNormal(rng, 0, 1, nd.Shape()...)
		}
	}
	return feeds
}

// noisyTanh is element-wise and says so, but is Impure, as a stochastic
// activation would be: the fuse pass keeps it and its neighbours apart.
type noisyTanh struct{}

func (noisyTanh) Name() string         { return "NoisyTanh" }
func (noisyTanh) Class() graph.OpClass { return graph.ClassElementwise }
func (noisyTanh) Impure()              {}
func (noisyTanh) InferShape(in [][]int) ([]int, error) {
	return append([]int(nil), in[0]...), nil
}
func (o noisyTanh) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.PointwiseInto(ctx.Pool, out, o.Pointwise(), in...)
}
func (noisyTanh) Pointwise() tensor.ScalarFn {
	return tensor.ScalarFn{Op: tensor.Tanh}
}

// wrapped runs another kernel op under the same name; impureOp and
// mutatorOp add a declaration to it that keeps it out of any fused set.
type wrapped struct{ graph.Op }

func (o wrapped) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return o.Op.(kernel).ForwardInto(ctx, in, out)
}

type impureOp struct{ wrapped }

func (impureOp) Impure() {}

type mutatorOp struct {
	wrapped
	target *graph.Node
}

func (o mutatorOp) Mutates() []*graph.Node { return []*graph.Node{o.target} }

// dense is x·W + b over fresh variables, x being a (4,6) placeholder.
func dense(g *graph.Graph) (y, w, b *graph.Node) {
	w = g.Variable("w", tensor.Full(0.1, 6, 5))
	b = g.Variable("b", tensor.Full(-0.2, 5))
	return ops.Add(ops.MatMul(g.Placeholder("x", 4, 6), w), b), w, b
}

// lossAndGrads fetches Sum(y) and its gradients with respect to vars.
func lossAndGrads(y *graph.Node, vars ...*graph.Node) []*graph.Node {
	loss := ops.Sum(y)
	grads, err := graph.Gradients(loss, vars)
	if err != nil {
		panic(err)
	}
	return append([]*graph.Node{loss}, grads...)
}

// TestFusePass: where the fuse pass fires, and each gate that blocks
// it. Every case also runs fused and unfused and compares the bits.
func TestFusePass(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() (*graph.Graph, []*graph.Node)
		want  []string // the fused steps, in schedule order
	}{
		// The gate sum takes the later product as its head and reads the
		// earlier one as an operand; the slices read the gates in place.
		{"LSTM cell tail: 13 ops become 2 steps", cellTail,
			[]string{"MatMul+Add+Add", "Slice+Sigmoid+Mul+Slice+Sigmoid+Slice+Tanh+Mul+Add", "Slice+Sigmoid+Tanh+Mul"}},
		{"a GEMM heads its bias add and relu", func() (*graph.Graph, []*graph.Node) {
			g := graph.New()
			y, _, _ := dense(g)
			return g, []*graph.Node{ops.Relu(y)}
		}, []string{"MatMul+Add+Relu"}},
		{"a convolution heads its bias add and tanh", func() (*graph.Graph, []*graph.Node) {
			g := graph.New()
			f := g.Variable("f", tensor.Full(0.05, 3, 3, 2, 4))
			b := g.Variable("b", tensor.Full(0.1, 4))
			conv := ops.Conv2D(g.Placeholder("x", 2, 5, 5, 2), f, 1, 1, 1, 1)
			return g, []*graph.Node{ops.Tanh(ops.Add(conv, b))}
		}, []string{"Conv2D+Add+Tanh"}},
		// ReluGrad reads the relu's output, the set's output, so no
		// gradient tap reads inside the set.
		{"training: the relu chain fuses fully", func() (*graph.Graph, []*graph.Node) {
			g := graph.New()
			y, w, b := dense(g)
			return g, lossAndGrads(ops.Relu(y), w, b)
		}, []string{"MatMul+Add+Relu", "Tile+ReluGrad"}},
		{"training: the tanh chain fuses fully", func() (*graph.Graph, []*graph.Node) {
			g := graph.New()
			y, w, b := dense(g)
			return g, lossAndGrads(ops.Tanh(y), w, b)
		}, []string{"MatMul+Add+Tanh", "Tile+Mul+Sub+Mul"}},
		// y has three readers, so its gradient is a three-input AddN:
		// Add's left fold, which joins the set of the terms it sums.
		{"training: a three-way gradient sum fuses", func() (*graph.Graph, []*graph.Node) {
			g := graph.New()
			y, w, b := dense(g)
			return g, lossAndGrads(ops.Add(ops.Add(ops.Tanh(y), ops.Square(y)), ops.Neg(y)), w, b)
		}, []string{"MatMul+Add", "Square+Add+Neg+Add", "Tile+Neg+Mul+Mul+Mul+Sub+Mul+AddN"}},
		{"two products: one heads, one is an operand", func() (*graph.Graph, []*graph.Node) {
			g := graph.New()
			a := ops.MatMul(g.Placeholder("x", 4, 6), g.Variable("w", tensor.Full(0.1, 6, 5)))
			b := ops.MatMul(g.Placeholder("h", 4, 3), g.Variable("u", tensor.Full(0.3, 3, 5)))
			return g, []*graph.Node{ops.Add(a, b)}
		}, []string{"MatMul+Add"}},
		{"a product read through a window stays an operand", func() (*graph.Graph, []*graph.Node) {
			g := graph.New()
			y, _, _ := dense(g)
			return g, []*graph.Node{ops.Sigmoid(ops.SliceN(y, []int{0, 1}, []int{-1, 3}))}
		}, []string{"MatMul+Add", "Slice+Sigmoid"}},
		{"a fetched head", func() (*graph.Graph, []*graph.Node) {
			g := graph.New()
			mm := ops.MatMul(g.Placeholder("x", 4, 6), g.Variable("w", tensor.Full(0.1, 6, 5)))
			return g, []*graph.Node{ops.Relu(mm), mm}
		}, nil},
		{"an Impure head", func() (*graph.Graph, []*graph.Node) {
			g := graph.New()
			x, w := g.Placeholder("x", 4, 6), g.Variable("w", tensor.Full(0.1, 6, 5))
			return g, []*graph.Node{ops.Relu(g.MustApply(impureOp{wrapped{ops.MatMul(x, w).Op()}}, x, w))}
		}, nil},
		{"a Mutator head", func() (*graph.Graph, []*graph.Node) {
			g := graph.New()
			x, w := g.Placeholder("x", 4, 6), g.Variable("w", tensor.Full(0.1, 6, 5))
			v := g.Variable("v", tensor.New(4, 5))
			return g, []*graph.Node{ops.Relu(g.MustApply(mutatorOp{wrapped{ops.MatMul(x, w).Op()}, v}, x, w))}
		}, nil},
		{"a head the set broadens", func() (*graph.Graph, []*graph.Node) {
			g := graph.New()
			mm := ops.MatMul(g.Placeholder("x", 4, 6), g.Variable("w", tensor.Full(0.1, 6, 1)))
			return g, []*graph.Node{ops.Add(mm, g.Placeholder("y", 4, 5))}
		}, nil},
		{"an update after the set's output does not block", func() (*graph.Graph, []*graph.Node) {
			// The MatMul reads w and the Add b; both are rewritten only after
			// the fused step has run.
			g := graph.New()
			y, w, b := dense(g)
			upW := ops.ApplySGD(w, g.Const("gw", tensor.Ones(6, 5)), 0.1)
			upB := ops.ApplySGD(b, g.Const("gb", tensor.Ones(5)), 0.1)
			return g, []*graph.Node{ops.Relu(y), upW, upB}
		}, []string{"MatMul+Add+Relu"}},
		{"row, column and scalar operands", func() (*graph.Graph, []*graph.Node) {
			g := graph.New()
			x, r, b := g.Placeholder("x", 4, 6), g.Placeholder("r", 4, 1), g.Placeholder("b", 6)
			y := ops.Div(ops.Mul(ops.Sub(ops.Exp(x), r), b), ops.ScalarConst(g, 3))
			return g, []*graph.Node{y}
		}, []string{"Exp+Sub+Mul+Div"}},
		{"a fetched intermediate", func() (*graph.Graph, []*graph.Node) {
			g := graph.New()
			a := ops.Sigmoid(g.Placeholder("x", 4, 6))
			return g, []*graph.Node{ops.Tanh(a), a}
		}, nil},
		{"a reader outside the set", func() (*graph.Graph, []*graph.Node) {
			g := graph.New()
			a := ops.Sigmoid(g.Placeholder("x", 4, 6))
			return g, []*graph.Node{ops.Tanh(a), ops.MatMul(a, g.Placeholder("w", 6, 6))}
		}, nil},
		{"an operand that broadens the output", func() (*graph.Graph, []*graph.Node) {
			g := graph.New()
			a := ops.Sigmoid(g.Placeholder("x", 4, 1))
			return g, []*graph.Node{ops.Add(a, g.Placeholder("y", 4, 6))}
		}, nil},
		{"an operand broadcast along a leading axis", func() (*graph.Graph, []*graph.Node) {
			g := graph.New()
			a := ops.Sigmoid(g.Placeholder("x", 2, 4, 6))
			return g, []*graph.Node{ops.Add(a, g.Placeholder("y", 4, 1))}
		}, []string{"Sigmoid+Add"}},
		{"an Impure neighbour", func() (*graph.Graph, []*graph.Node) {
			g := graph.New()
			a := ops.Sigmoid(g.Placeholder("x", 4, 6))
			return g, []*graph.Node{ops.Tanh(g.MustApply(noisyTanh{}, a))}
		}, nil},
		{"a variable an update in the plan rewrites", func() (*graph.Graph, []*graph.Node) {
			// Sigmoid reads v before the update, the Add after it: fused at
			// the Add, Sigmoid would read the updated v.
			g := graph.New()
			v := g.Variable("v", tensor.Full(0.5, 4, 6))
			up := ops.ApplySGD(v, g.Const("grad", tensor.Ones(4, 6)), 0.1)
			return g, []*graph.Node{ops.Add(ops.Sigmoid(v), up)}
		}, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, fetches := c.build()
			sc := fuse(newSchedule(fetches))
			var got []string
			for i := range sc.steps {
				if f := sc.steps[i].fused; f != nil {
					got = append(got, f.name)
				}
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("fused steps %q, want %q", got, c.want)
			}
			g2, fetches2 := c.build() // its own variables
			fused, unfused := NewSession(g), NewSession(g2, WithUnfusedPlans())
			if err := checkPlan(fused.Plan(fetches)); err != nil {
				t.Fatal(err)
			}
			if err := checkPlan(unfused.Plan(fetches2)); err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 2; run++ {
				want := unfused.MustRun(fetches2, feedAll(g2, 1))
				assertSameTensors(t, "fused vs unfused", fused.MustRun(fetches, feedAll(g, 1)), want)
			}
			assertSameVariables(t, g, g2)
		})
	}
}

// TestFusedStepIsOneOp: to every reader of a plan a fused step is one
// op — named by its members joined with "+", in its head's class or
// else element-wise, and priced by the modeled GPU as one launch over
// the sum of its members' costs.
func TestFusedStepIsOneOp(t *testing.T) {
	g, fetches := cellTail()
	gpu := NewGTX960()
	s := NewSession(g, WithTrace(), WithDevice(gpu))
	s.MustRun(fetches, feedAll(g, 2))
	plan := s.Plan(fetches)
	if plan.Ops() != 4 {
		t.Errorf("the cell runs %d op steps, want 4: a gate GEMM, the GEMM-headed gate sum and two fused tails", plan.Ops())
	}
	byNode := map[*graph.Node]*planStep{}
	for i := range plan.steps {
		byNode[plan.steps[i].node] = &plan.steps[i]
	}
	fused, headed := 0, 0
	for _, e := range s.Trace() {
		st := byNode[e.Node]
		if st.fused == nil {
			continue
		}
		fused++
		class := graph.ClassElementwise
		if st.fused.head != nil {
			headed++
			class = graph.ClassMatrix
		}
		if e.Op != st.fused.name || e.Class != class {
			t.Errorf("fused step traced as %q (%v), want %q (%v)", e.Op, e.Class, st.fused.name, class)
		}
		// Each member alone is bandwidth-bound, so the sum of their
		// roofline times past the launch is the roofline time of the sum.
		want := gpu.Launch
		for _, m := range st.nodes {
			want += gpu.OpTime([]*graph.Node{m}, 0) - gpu.Launch
		}
		if d := e.Dur - want; d < -time.Duration(len(st.nodes)) || d > time.Duration(len(st.nodes)) {
			t.Errorf("%s priced %v, its members %v", e.Op, e.Dur, want)
		}
	}
	if fused != 3 || headed != 1 {
		t.Errorf("%d fused steps traced, %d of them headed; want 3, one headed", fused, headed)
	}
}

// TestRandomDAGFusesHeads reports how many of randomDAG's fused steps
// have a head, and how many read the (1,2,6) operand broadcast along a
// leading axis, over 200 seeds, so FuzzPlanCompile's fused-vs-unfused
// axis is known to reach both.
func TestRandomDAGFusesHeads(t *testing.T) {
	fused, headed, leading := 0, 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		g, _, fetches := randomDAG(seed, 10+int(seed*7)%50)
		for _, st := range NewSession(g).Plan(fetches).steps {
			if st.fused == nil {
				continue
			}
			fused++
			if st.fused.head != nil {
				headed++
			}
			for _, o := range st.fused.operands {
				if tensor.SameShape(o.Shape(), []int{1, 2, 6}) {
					leading++
					break
				}
			}
		}
	}
	t.Logf("randomDAG, 200 seeds: %d fused steps, %d headed, %d reading a leading-axis broadcast", fused, headed, leading)
	if headed == 0 {
		t.Error("no randomDAG plan has a headed fused step")
	}
	if leading == 0 {
		t.Error("no randomDAG plan fuses an operand broadcast along a leading axis")
	}
}
