package trace

import (
	"testing"
	"time"

	"hafw/internal/ids"
)

func TestRecorderCapacityEvictsOldest(t *testing.T) {
	r := NewRecorderCapacity(3)
	for i := 0; i < 5; i++ {
		r.Record(ids.ProcessID(i+1), KindUpdate, 1, "")
	}
	if got := r.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained = %d, want 3", len(evs))
	}
	// The newest three survive, in record order.
	for i, want := range []ids.ProcessID{3, 4, 5} {
		if evs[i].Node != want {
			t.Errorf("event %d node = %v, want %v", i, evs[i].Node, want)
		}
	}
}

func TestRecorderUnboundedByDefault(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 10000; i++ {
		r.Record(1, KindUpdate, 1, "")
	}
	if got := r.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0 (unbounded)", got)
	}
	if got := r.Count(""); got != 10000 {
		t.Fatalf("Count = %d, want 10000", got)
	}
}

func TestSpanEvictionCountsAsDropped(t *testing.T) {
	r := NewRecorderCapacity(1)
	sp := r.StartSpan(1, 1, "a")
	sp.End()
	sp = r.StartSpan(1, 1, "b")
	sp.End()
	if got := r.Dropped(); got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
	evs := r.Events()
	if len(evs) != 1 || evs[0].Kind != KindSpan || evs[0].Detail != "b" {
		t.Fatalf("retained after eviction = %+v, want only span b", evs)
	}
}

// TestDualPrimaryToleranceBoundary pins the tolerance comparison as
// strict: an overlap exactly equal to the tolerance is absorbed, one
// nanosecond more is a violation.
func TestDualPrimaryToleranceBoundary(t *testing.T) {
	const tol = 10 * time.Millisecond
	events := []Event{
		mk(0, 1, KindPromote, 1),
		mk(110, 1, KindDemote, 1), // overlaps node 2's [100, 110+...] window
		mk(100, 2, KindPromote, 1),
		mk(200, 2, KindDemote, 1),
	}
	// Overlap is exactly 10ms == tolerance: absorbed.
	if vs := DualPrimaryViolations(events, tol); len(vs) != 0 {
		t.Fatalf("overlap == tolerance produced violations: %v", vs)
	}
	// One nanosecond past the tolerance: reported.
	events[1].At = events[1].At.Add(time.Nanosecond)
	vs := DualPrimaryViolations(events, tol)
	if len(vs) != 1 {
		t.Fatalf("overlap just past tolerance: violations = %v, want 1", vs)
	}
	if vs[0].Overlap != tol+time.Nanosecond {
		t.Errorf("Overlap = %v, want %v", vs[0].Overlap, tol+time.Nanosecond)
	}
	// Zero tolerance keeps any positive overlap.
	if vs := DualPrimaryViolations(events, 0); len(vs) != 1 {
		t.Fatalf("zero tolerance: violations = %v, want 1", vs)
	}
}
