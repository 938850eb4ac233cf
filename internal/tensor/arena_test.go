package tensor

import "testing"

// TestArenaFitGrowsOnce: the slab grows only for a plan larger than it,
// and its stats describe the plan that sized it.
func TestArenaFitGrowsOnce(t *testing.T) {
	a := NewArena()
	if a.Fit(0, 0) || a.Slab() != nil || a.Stats() != (ArenaStats{}) || a.Stats().ReuseRatio() != 0 {
		t.Fatalf("an empty plan allocated: slab %d, stats %+v", len(a.Slab()), a.Stats())
	}
	if !a.Fit(100, 400) || len(a.Slab()) != 100 {
		t.Fatalf("Fit(100) gave a %d-float slab", len(a.Slab()))
	}
	first := &a.Slab()[0]
	if a.Fit(60, 1000) || &a.Slab()[0] != first {
		t.Fatal("a smaller plan replaced the slab")
	}
	if st := a.Stats(); st.TotalBytes != 400 || st.SlotBytes != 1600 || st.ReuseRatio() != 0.75 {
		t.Fatalf("stats %+v (reuse ratio %g), want the 100-float plan's 400 of 1600 bytes", st, st.ReuseRatio())
	}
	if !a.Fit(101, 101) || len(a.Slab()) != 101 || a.Stats().ReuseRatio() != 0 {
		t.Fatalf("Fit(101): slab %d, stats %+v", len(a.Slab()), a.Stats())
	}
}

// TestBufferGuardDetectsOverlaps pins the assertion hook's semantics:
// concurrent readers are fine, a write with readers outstanding (the
// corruption a scheduler without anti-dependency gating would allow)
// is a violation, as are overlapping writers and reads during a write.
func TestBufferGuardDetectsOverlaps(t *testing.T) {
	buf := make([]float32, 8)
	other := make([]float32, 8)

	g := NewBufferGuard()
	g.BeginRead(buf)
	g.BeginRead(buf) // concurrent readers are legal
	g.EndRead(buf)
	g.EndRead(buf)
	g.BeginWrite(buf) // write with no readers is legal
	g.EndWrite(buf)
	g.BeginWrite(other) // distinct buffers never interact
	g.BeginRead(buf)
	g.EndRead(buf)
	g.EndWrite(other)
	if v := g.Violations(); len(v) != 0 {
		t.Fatalf("legal sequence reported violations: %v", v)
	}

	g = NewBufferGuard()
	g.BeginRead(buf)
	g.BeginWrite(buf) // writer while a reader is outstanding
	if v := g.Violations(); len(v) != 1 {
		t.Fatalf("expected 1 violation for write-under-read, got %v", v)
	}

	g = NewBufferGuard()
	g.BeginWrite(buf)
	g.BeginWrite(buf) // overlapping writers
	g.BeginRead(buf)  // read during a write
	if v := g.Violations(); len(v) != 2 {
		t.Fatalf("expected 2 violations, got %v", v)
	}

	// Empty buffers are ignored rather than keyed on a nil pointer.
	g = NewBufferGuard()
	g.BeginWrite(nil)
	g.BeginRead(nil)
	if v := g.Violations(); len(v) != 0 {
		t.Fatalf("nil buffers must be ignored: %v", v)
	}
}

// TestBufferGuardComparesRanges: the guard keys accesses on address
// ranges, not on where a slice starts. Two slots of one slab that
// overlap without sharing a first element collide; adjacent ones do
// not.
func TestBufferGuardComparesRanges(t *testing.T) {
	slab := make([]float32, 32)
	g := NewBufferGuard()
	g.BeginRead(slab[0:16])
	g.BeginWrite(slab[16:32]) // adjacent: legal
	g.EndWrite(slab[16:32])
	g.EndRead(slab[0:16])
	if v := g.Violations(); len(v) != 0 {
		t.Fatalf("adjacent ranges reported violations: %v", v)
	}
	g.BeginRead(slab[0:16])
	g.BeginWrite(slab[8:24]) // overlaps the read from its middle
	if v := g.Violations(); len(v) != 1 {
		t.Fatalf("a write overlapping an outstanding read: %d violations, want 1: %v", len(v), v)
	}
	g.EndRead(slab[0:16])
	g.BeginWrite(slab[20:28]) // inside the outstanding write
	g.BeginRead(slab[4:12])   // into the write's first half
	if v := g.Violations(); len(v) != 3 {
		t.Fatalf("overlapping writes and a read under a write: %d violations, want 3: %v", len(v), v)
	}
	g.EndRead(slab[4:12])
	g.EndWrite(slab[20:28])
	g.EndWrite(slab[8:24])
	g.BeginWrite(slab[0:32]) // every access retired: legal
	if v := g.Violations(); len(v) != 3 {
		t.Fatalf("retired accesses still collide: %v", v)
	}
}
