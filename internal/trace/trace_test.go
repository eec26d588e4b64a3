package trace

import (
	"testing"
	"time"

	"hafw/internal/ids"
)

// mk builds an event at a relative millisecond offset from a fixed base.
var base = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

func mk(ms int, node ids.ProcessID, kind Kind, sid ids.SessionID) Event {
	return Event{At: base.Add(time.Duration(ms) * time.Millisecond), Node: node, Kind: kind, Session: sid}
}

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	r.Record(1, KindPromote, 1, "")
	r.Record(1, KindResponse, 1, "")
	r.Record(2, KindUpdate, 1, "")
	if got := r.Count(""); got != 3 {
		t.Errorf("Count(all) = %d, want 3", got)
	}
	if got := r.Count(KindResponse); got != 1 {
		t.Errorf("Count(response) = %d, want 1", got)
	}
	evs := r.Events()
	if len(evs) != 3 || evs[0].Kind != KindPromote {
		t.Errorf("Events = %+v", evs)
	}
}

func TestPrimaryIntervalsCleanHandover(t *testing.T) {
	events := []Event{
		mk(0, 1, KindPromote, 1),
		mk(100, 1, KindDemote, 1),
		mk(100, 2, KindPromote, 1),
		mk(200, 2, KindDemote, 1),
	}
	ivs := PrimaryIntervals(events)
	if len(ivs) != 2 {
		t.Fatalf("intervals = %d, want 2", len(ivs))
	}
	if ivs[0].Node != 1 || ivs[1].Node != 2 {
		t.Errorf("interval nodes = %v, %v", ivs[0].Node, ivs[1].Node)
	}
	if ivs[0].End != base.Add(100*time.Millisecond) {
		t.Errorf("first interval end = %v", ivs[0].End)
	}
}

func TestCrashClosesIntervals(t *testing.T) {
	events := []Event{
		mk(0, 1, KindPromote, 1),
		mk(0, 1, KindPromote, 2),
		mk(50, 1, KindCrash, 0),
	}
	ivs := PrimaryIntervals(events)
	if len(ivs) != 2 {
		t.Fatalf("intervals = %d, want 2", len(ivs))
	}
	for _, iv := range ivs {
		if iv.open() {
			t.Errorf("interval %+v should be closed by crash", iv)
		}
	}
}

func TestDoublePromoteKeepsOriginalStart(t *testing.T) {
	events := []Event{
		mk(0, 1, KindPromote, 1),
		mk(50, 1, KindPromote, 1),
		mk(100, 1, KindDemote, 1),
	}
	ivs := PrimaryIntervals(events)
	if len(ivs) != 1 {
		t.Fatalf("intervals = %d, want 1", len(ivs))
	}
	if ivs[0].Start != base {
		t.Errorf("start = %v, want original", ivs[0].Start)
	}
}

func TestDualPrimaryDetected(t *testing.T) {
	events := []Event{
		mk(0, 1, KindPromote, 1),
		mk(200, 1, KindDemote, 1),
		mk(100, 2, KindPromote, 1), // overlaps node 1 for 100ms
		mk(300, 2, KindDemote, 1),
	}
	vs := DualPrimaryViolations(events, 10*time.Millisecond)
	if len(vs) != 1 {
		t.Fatalf("violations = %d, want 1", len(vs))
	}
	if vs[0].Overlap != 100*time.Millisecond {
		t.Errorf("overlap = %v, want 100ms", vs[0].Overlap)
	}
	if vs[0].String() == "" {
		t.Error("String should render")
	}
}

func TestDualPrimaryToleranceAbsorbsSkew(t *testing.T) {
	events := []Event{
		mk(0, 1, KindPromote, 1),
		mk(105, 1, KindDemote, 1), // 5ms of skew overlap
		mk(100, 2, KindPromote, 1),
		mk(300, 2, KindDemote, 1),
	}
	if vs := DualPrimaryViolations(events, 10*time.Millisecond); len(vs) != 0 {
		t.Errorf("violations = %v, want none within tolerance", vs)
	}
	if vs := DualPrimaryViolations(events, time.Millisecond); len(vs) != 1 {
		t.Errorf("violations = %v, want 1 below tolerance", vs)
	}
}

func TestDifferentSessionsDoNotConflict(t *testing.T) {
	events := []Event{
		mk(0, 1, KindPromote, 1),
		mk(0, 2, KindPromote, 2),
	}
	if vs := DualPrimaryViolations(events, 0); len(vs) != 0 {
		t.Errorf("violations across sessions = %v", vs)
	}
}

func TestCrashThenTakeoverIsNotViolation(t *testing.T) {
	events := []Event{
		mk(0, 1, KindPromote, 1),
		mk(100, 1, KindCrash, 0),
		mk(150, 2, KindPromote, 1),
	}
	if vs := DualPrimaryViolations(events, 0); len(vs) != 0 {
		t.Errorf("crash takeover flagged: %v", vs)
	}
}

func TestPostCrashPromoteIgnored(t *testing.T) {
	// An isolated (crashed) node that keeps promoting itself in its own
	// partition is not live service and must not create intervals.
	events := []Event{
		mk(0, 1, KindPromote, 1),
		mk(100, 1, KindCrash, 0),
		mk(120, 1, KindPromote, 1), // zombie self-promotion
		mk(150, 2, KindPromote, 1), // real takeover
	}
	if vs := DualPrimaryViolations(events, 0); len(vs) != 0 {
		t.Fatalf("zombie promotion flagged as violation: %v", vs)
	}
	ivs := PrimaryIntervals(events)
	if len(ivs) != 2 {
		t.Fatalf("intervals = %d, want 2 (original + takeover)", len(ivs))
	}
}

func TestReviveRestoresPromotion(t *testing.T) {
	events := []Event{
		mk(0, 1, KindCrash, 0),
		mk(100, 1, KindRevive, 0),
		mk(120, 1, KindPromote, 1),
	}
	ivs := PrimaryIntervals(events)
	if len(ivs) != 1 || ivs[0].Node != 1 {
		t.Fatalf("revived node's promotion lost: %v", ivs)
	}
}
