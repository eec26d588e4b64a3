package vod

import (
	"sync"
	"testing"
	"time"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/wire"
)

// fakeResponder records Send calls.
type fakeResponder struct {
	mu     sync.Mutex
	active bool
	frames []Frame
}

func newFakeResponder() *fakeResponder { return &fakeResponder{active: true} }

func (r *fakeResponder) Send(body wire.Message) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.active {
		return false
	}
	if f, ok := body.(Frame); ok {
		r.frames = append(r.frames, f)
	}
	return true
}
func (r *fakeResponder) Stream(next func() (wire.Message, bool)) int {
	n := 0
	for {
		m, ok := next()
		if !ok || !r.Send(m) {
			return n
		}
		n++
	}
}

func (r *fakeResponder) Client() ids.ClientID   { return 1 }
func (r *fakeResponder) Session() ids.SessionID { return 1 }
func (r *fakeResponder) deactivate() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active = false
}
func (r *fakeResponder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.frames)
}
func (r *fakeResponder) all() []Frame {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Frame(nil), r.frames...)
}

func fastMovie() Movie {
	return Movie{Name: "m", Frames: 10000, FPS: 500, GOP: 12, FrameSize: 16}
}

func newTestSession(policy TakeoverPolicy) *session {
	svc := New(fastMovie(), policy)
	return svc.NewSession("m", 1, 1).(*session)
}

func TestMovieClasses(t *testing.T) {
	m := fastMovie()
	if m.Class(0) != ClassI || m.Class(12) != ClassI || m.Class(24) != ClassI {
		t.Error("GOP boundaries must be I frames")
	}
	if m.Class(1) == ClassI || m.Class(13) == ClassI {
		t.Error("mid-GOP frames must not be I")
	}
	if ClassI.String() != "I" || ClassP.String() != "P" || ClassB.String() != "B" {
		t.Error("class names")
	}
}

func TestMovieFrameDeterministic(t *testing.T) {
	m := fastMovie()
	a, b := m.Frame(7), m.Frame(7)
	if a.Index != 7 || len(a.Data) != m.FrameSize {
		t.Fatalf("frame = %+v", a)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("frame data must be deterministic")
		}
	}
}

func TestStreamingAdvances(t *testing.T) {
	s := newTestSession(ResendUncertain)
	r := newFakeResponder()
	s.Activate(r)
	defer s.Close()
	deadline := time.Now().Add(2 * time.Second)
	for r.count() < 10 {
		if time.Now().After(deadline) {
			t.Fatal("stream did not produce frames")
		}
		time.Sleep(time.Millisecond)
	}
	frames := r.all()
	for i := 1; i < len(frames); i++ {
		if frames[i].Index != frames[i-1].Index+1 {
			t.Fatalf("frames not sequential: %d then %d", frames[i-1].Index, frames[i].Index)
		}
	}
}

func TestPauseAndPlay(t *testing.T) {
	s := newTestSession(ResendUncertain)
	r := newFakeResponder()
	s.ApplyUpdate(Pause{})
	s.Activate(r)
	defer s.Close()
	time.Sleep(50 * time.Millisecond)
	if r.count() != 0 {
		t.Fatal("paused session must not stream")
	}
	s.ApplyUpdate(Play{})
	deadline := time.Now().Add(2 * time.Second)
	for r.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("play did not resume streaming")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSeek(t *testing.T) {
	s := newTestSession(ResendUncertain)
	s.ApplyUpdate(Seek{Frame: 500})
	if s.Position() != 500 {
		t.Fatalf("position = %d, want 500", s.Position())
	}
	s.ApplyUpdate(Seek{Frame: 1 << 60}) // out of range: ignored
	if s.Position() != 500 {
		t.Fatal("out-of-range seek must be ignored")
	}
}

func TestSetRate(t *testing.T) {
	s := newTestSession(ResendUncertain)
	s.ApplyUpdate(SetRate{FPS: 100})
	s.mu.Lock()
	fps := s.ctx.FPS
	s.mu.Unlock()
	if fps != 100 {
		t.Fatalf("fps = %v", fps)
	}
	s.ApplyUpdate(SetRate{FPS: -1})
	s.mu.Lock()
	fps = s.ctx.FPS
	s.mu.Unlock()
	if fps != 100 {
		t.Fatal("invalid rate must be ignored")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := newTestSession(ResendUncertain)
	s.ApplyUpdate(Seek{Frame: 42})
	s.ApplyUpdate(Pause{})
	blob := s.Snapshot()

	s2 := newTestSession(ResendUncertain)
	s2.Restore(blob)
	s2.mu.Lock()
	defer s2.mu.Unlock()
	if s2.ctx.Pos != 42 || s2.ctx.Playing {
		t.Fatalf("restored ctx = %+v", s2.ctx)
	}
}

func TestRestoreEmptyAndGarbage(t *testing.T) {
	s := newTestSession(ResendUncertain)
	s.ApplyUpdate(Seek{Frame: 9})
	s.Restore(nil) // no propagation yet: keep initial state
	if s.Position() != 9 {
		t.Error("Restore(nil) must not clobber state")
	}
	s.Restore([]byte("garbage"))
	if s.Position() != 9 {
		t.Error("Restore(garbage) must not clobber state")
	}
}

func TestSyncOnlyAdvances(t *testing.T) {
	s := newTestSession(ResendUncertain)
	s.ApplyUpdate(Seek{Frame: 100})
	s.Sync(core.EncodeContext(Context{Pos: 50}))
	if s.Position() != 100 {
		t.Error("Sync must not move position backwards")
	}
	s.Sync(core.EncodeContext(Context{Pos: 150}))
	if s.Position() != 150 {
		t.Error("Sync must advance position")
	}
}

func TestDeactivateStopsStreaming(t *testing.T) {
	s := newTestSession(ResendUncertain)
	r := newFakeResponder()
	s.Activate(r)
	deadline := time.Now().Add(2 * time.Second)
	for r.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no frames")
		}
		time.Sleep(time.Millisecond)
	}
	s.Deactivate()
	n := r.count()
	time.Sleep(50 * time.Millisecond)
	if r.count() > n+1 {
		t.Fatal("stream kept running after Deactivate")
	}
	// Reactivation works.
	r2 := newFakeResponder()
	s.Activate(r2)
	defer s.Close()
	deadline = time.Now().Add(2 * time.Second)
	for r2.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no frames after reactivation")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTakeoverPolicyResend(t *testing.T) {
	s := newTestSession(ResendUncertain)
	s.Restore(core.EncodeContext(Context{Pos: 100, Playing: true, FPS: 500}))
	r := newFakeResponder()
	s.Activate(r)
	defer s.Close()
	deadline := time.Now().Add(2 * time.Second)
	for r.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no frames")
		}
		time.Sleep(time.Millisecond)
	}
	if first := r.all()[0].Index; first != 100 {
		t.Fatalf("ResendUncertain must restart at the propagated position, got %d", first)
	}
}

func TestTakeoverPolicyDrop(t *testing.T) {
	s := newTestSession(DropUncertain)
	s.Restore(core.EncodeContext(Context{Pos: 100, Playing: true, FPS: 500}))
	r := newFakeResponder()
	s.Activate(r)
	defer s.Close()
	deadline := time.Now().Add(2 * time.Second)
	for r.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no frames")
		}
		time.Sleep(time.Millisecond)
	}
	// 100 is mid-GOP (GOP=12): next boundary is 108.
	if first := r.all()[0].Index; first != 108 {
		t.Fatalf("DropUncertain must skip to the GOP boundary 108, got %d", first)
	}
}

func TestTakeoverPolicyMPEG(t *testing.T) {
	s := newTestSession(MPEGPolicy)
	s.Restore(core.EncodeContext(Context{Pos: 100, Playing: true, FPS: 500}))
	r := newFakeResponder()
	s.Activate(r)
	defer s.Close()
	deadline := time.Now().Add(2 * time.Second)
	for r.count() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no frames")
		}
		time.Sleep(time.Millisecond)
	}
	frames := r.all()
	// The window [100,108) has no I frames (96 is the GOP start), so the
	// stream resumes directly at 108... unless the window includes a
	// boundary. With Pos=100, nextGOP=108 and no I frame in between.
	if frames[0].Index != 108 {
		t.Fatalf("MPEG policy should resume at 108, got %d", frames[0].Index)
	}

	// From a boundary position, the I frame itself is resent.
	s2 := newTestSession(MPEGPolicy)
	s2.Restore(core.EncodeContext(Context{Pos: 96, Playing: true, FPS: 500}))
	r2 := newFakeResponder()
	s2.Activate(r2)
	defer s2.Close()
	deadline = time.Now().Add(2 * time.Second)
	for r2.count() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no frames from boundary takeover")
		}
		time.Sleep(time.Millisecond)
	}
	f2 := r2.all()
	if f2[0].Index != 96 || f2[0].Class != ClassI {
		t.Fatalf("MPEG policy must resend the I frame 96, got %+v", f2[0])
	}
}

func TestPlayerStats(t *testing.T) {
	m := fastMovie()
	p := NewPlayer(m)
	for i := uint64(0); i < 10; i++ {
		p.Handler(i, m.Frame(i))
	}
	p.Handler(99, m.Frame(3)) // duplicate P/B
	p.Handler(99, m.Frame(0)) // duplicate I
	st := p.Stats()
	if st.Received != 12 || st.Unique != 10 || st.Duplicates != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.DuplicateI != 1 {
		t.Errorf("DuplicateI = %d, want 1", st.DuplicateI)
	}
	if st.MissingTotal != 0 {
		t.Errorf("MissingTotal = %d, want 0", st.MissingTotal)
	}
}

func TestPlayerDetectsGaps(t *testing.T) {
	m := fastMovie()
	p := NewPlayer(m)
	p.Handler(1, m.Frame(0))
	p.Handler(2, m.Frame(5))
	p.Handler(3, m.Frame(24)) // skips 12 (an I frame) among others
	st := p.Stats()
	if st.MissingTotal != 22 {
		t.Errorf("MissingTotal = %d, want 22", st.MissingTotal)
	}
	if st.MissingI != 1 {
		t.Errorf("MissingI = %d, want 1 (frame 12)", st.MissingI)
	}
}

func TestServiceImplementsInterfaces(t *testing.T) {
	var _ core.Service = New(fastMovie(), ResendUncertain)
	if New(fastMovie(), ResendUncertain).Movie().Name != "m" {
		t.Error("Movie accessor")
	}
}
