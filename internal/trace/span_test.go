package trace

import (
	"testing"
	"time"
)

func TestSpanRecordsDuration(t *testing.T) {
	r := NewRecorder()
	sp := r.StartSpan(1, 7, "op")
	time.Sleep(time.Millisecond)
	sp.End()

	evs := r.Events()
	if len(evs) != 1 || evs[0].Kind != KindSpan || evs[0].Session != 7 || evs[0].Node != 1 || evs[0].Detail != "op" {
		t.Fatalf("recorded event = %+v", evs)
	}
	if evs[0].Dur <= 0 {
		t.Fatalf("span duration = %v, want > 0", evs[0].Dur)
	}
}

func TestSpanDoubleEndRecordsOnce(t *testing.T) {
	r := NewRecorder()
	sp := r.StartSpan(1, 0, "op")
	sp.End()
	sp.End()
	if n := r.Count(KindSpan); n != 1 {
		t.Fatalf("Count(KindSpan) = %d after double End, want 1", n)
	}
}

func TestSpanNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	sp := r.StartSpan(1, 0, "op")
	sp.End() // must not panic
}
