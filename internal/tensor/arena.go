package tensor

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Arena is a session's slab: one []float32 holding every kernel slot of
// every plan the session compiled, each at the offset its plan's assign
// pass gave it (see the runtime package), so that tensors with disjoint
// lifetimes share storage and steady-state steps allocate nothing for
// their intermediates. Plans of one session never run at once, so they
// share the slab; it is sized to the largest of them. Its contents are
// unspecified: every kernel overwrites its slot.
//
// An Arena is not safe for concurrent use; like Pool, it is owned by a
// single session. Stats alone may be read concurrently.
type Arena struct {
	slab []float32

	// guard, when non-nil (test builds), observes every read and write
	// of slab ranges at execution time so tests can assert the
	// scheduler's lifetime invariant: no range is rewritten while
	// readers of an overlapping range are outstanding.
	guard *BufferGuard

	// Stats. Atomic so concurrent observers (the serving engine's
	// /stats and /metrics scrapes) can read them while the owning
	// session executes.
	floats, slotFloats atomic.Int64
}

// NewArena returns an arena with an empty slab.
func NewArena() *Arena { return &Arena{} }

// Slab returns the slab.
func (a *Arena) Slab() []float32 { return a.slab }

// Fit makes the slab hold at least n floats for a plan whose slots would
// take slotFloats without sharing addresses. It reports whether it
// allocated a new slab, whose every range must then be bound again: the
// old slab belongs to no one.
func (a *Arena) Fit(n, slotFloats int) bool {
	if n <= len(a.slab) {
		return false
	}
	a.slab = make([]float32, n)
	a.floats.Store(int64(n))
	a.slotFloats.Store(int64(slotFloats))
	return true
}

// SetGuard installs (or, with nil, removes) the execution-time
// assertion hook. Tests attach a guard before running plans; the
// runtime consults it around every operation that touches the slab.
// Production sessions leave it nil.
func (a *Arena) SetGuard(g *BufferGuard) { a.guard = g }

// Guard returns the installed assertion hook (nil outside tests).
func (a *Arena) Guard() *BufferGuard { return a.guard }

// BufferGuard is the test-build assertion hook for slab ranges. The
// executor brackets every operation with BeginRead calls for each slot
// its inputs may reference and a BeginWrite call for its own slot. The
// guard records a violation whenever a range is written while a reader
// or another writer of an overlapping range is outstanding, or read
// while a writer of an overlapping range is — exactly the corruption a
// scheduler without completion-count gating of address reuse would
// permit. Ranges are compared by address, so two slots that overlap
// without starting at the same element still collide. It is safe for
// concurrent use.
type BufferGuard struct {
	mu            sync.Mutex
	reads, writes [][]float32 // outstanding accesses
	violations    []string
}

// NewBufferGuard returns an empty guard.
func NewBufferGuard() *BufferGuard { return &BufferGuard{} }

// overlapping counts the ranges of set that share an element with buf.
func overlapping(set [][]float32, buf []float32) (n int) {
	for _, r := range set {
		if slicesOverlap(r, buf) {
			n++
		}
	}
	return n
}

// drop removes one access to exactly buf from set.
func drop(set [][]float32, buf []float32) [][]float32 {
	for i, r := range set {
		if len(r) == len(buf) && &r[0] == &buf[0] {
			set[i] = set[len(set)-1]
			return set[:len(set)-1]
		}
	}
	return set
}

// BeginRead registers an outstanding reader of buf's current value.
// Reading while a writer owns an overlapping range is a violation.
func (g *BufferGuard) BeginRead(buf []float32) {
	if len(buf) == 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if overlapping(g.writes, buf) > 0 {
		g.violations = append(g.violations, fmt.Sprintf("read of %p+%d while a writer owns an overlapping range", &buf[0], len(buf)))
	}
	g.reads = append(g.reads, buf)
}

// EndRead retires a reader registered by BeginRead.
func (g *BufferGuard) EndRead(buf []float32) {
	if len(buf) == 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.reads = drop(g.reads, buf)
}

// BeginWrite registers buf's next writer. Outstanding readers of an
// overlapping range, or a writer of one, are violations.
func (g *BufferGuard) BeginWrite(buf []float32) {
	if len(buf) == 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if n := overlapping(g.reads, buf); n > 0 {
		g.violations = append(g.violations, fmt.Sprintf("write of %p+%d with %d readers of an overlapping range outstanding", &buf[0], len(buf), n))
	}
	if overlapping(g.writes, buf) > 0 {
		g.violations = append(g.violations, fmt.Sprintf("write of %p+%d while another writer owns an overlapping range", &buf[0], len(buf)))
	}
	g.writes = append(g.writes, buf)
}

// EndWrite retires the writer registered by BeginWrite.
func (g *BufferGuard) EndWrite(buf []float32) {
	if len(buf) == 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.writes = drop(g.writes, buf)
}

// Violations returns every recorded invariant breach.
func (g *BufferGuard) Violations() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.violations...)
}

// ArenaStats summarizes an arena's slab.
type ArenaStats struct {
	// TotalBytes is the slab's size.
	TotalBytes int64
	// SlotBytes is what the slots of the plan the slab is sized to would
	// take if no two of them shared an address, each rounded up to its
	// alignment.
	SlotBytes int64
}

// Stats reports the slab's size. Unlike the rest of the arena, Stats is
// safe to call concurrently with the owning session.
func (a *Arena) Stats() ArenaStats {
	return ArenaStats{TotalBytes: a.floats.Load() * elemSize, SlotBytes: a.slotFloats.Load() * elemSize}
}

// ReuseRatio is the share of SlotBytes that address sharing saves,
// 1 − TotalBytes/SlotBytes: in [0, 1), since a first-fit offset never
// passes the sum of the slots placed before it. Zero before any plan.
func (s ArenaStats) ReuseRatio() float64 {
	if s.SlotBytes == 0 {
		return 0
	}
	return 1 - float64(s.TotalBytes)/float64(s.SlotBytes)
}

// elemSize is the storage size of one element in bytes.
const elemSize = 4
