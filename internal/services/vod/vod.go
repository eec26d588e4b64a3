// Package vod implements the paper's motivating service instance: a
// fault-tolerant video-on-demand service (Anker, Dolev & Keidar, ICDCS
// 1999). Each movie is a content unit; a session streams frames to one
// client; the session context is the playback position, play/pause state,
// and frame rate.
//
// The movies are synthetic: deterministic generators of MPEG-like frame
// sequences (I frames at GOP boundaries, P/B frames between), which
// preserves exactly what the paper's analysis depends on — frame rate,
// frame classes, and the positional context — without shipping video
// (the real system's movies are replaced per the substitution rules in
// DESIGN.md).
package vod

import (
	"sync"
	"time"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/wire"
)

// FrameClass is an MPEG-style frame type.
type FrameClass uint8

// Frame classes.
const (
	// ClassI is a full image frame; the paper's policy discussion favors
	// duplicate delivery of these over the risk of losing them.
	ClassI FrameClass = iota + 1
	// ClassP is a predicted (incremental) frame.
	ClassP
	// ClassB is a bidirectional (incremental) frame.
	ClassB
)

// String implements fmt.Stringer.
func (c FrameClass) String() string {
	switch c {
	case ClassI:
		return "I"
	case ClassP:
		return "P"
	case ClassB:
		return "B"
	default:
		return "?"
	}
}

// Movie is a synthetic movie description. Frames are generated on demand,
// deterministically, so every replica serves identical content.
type Movie struct {
	// Name is the content unit name.
	Name ids.UnitName
	// Frames is the total frame count.
	Frames uint64
	// FPS is the nominal frame rate.
	FPS float64
	// GOP is the group-of-pictures length: frame i is an I frame iff
	// i % GOP == 0.
	GOP uint64
	// FrameSize is the payload bytes per frame.
	FrameSize int
}

// DefaultMovie returns a small movie suitable for tests and examples.
func DefaultMovie(name ids.UnitName) Movie {
	return Movie{Name: name, Frames: 24 * 60, FPS: 24, GOP: 12, FrameSize: 256}
}

// Class returns the frame class at an index.
func (m Movie) Class(i uint64) FrameClass {
	if m.GOP == 0 || i%m.GOP == 0 {
		return ClassI
	}
	if i%3 == 0 {
		return ClassB
	}
	return ClassP
}

// Frame materializes frame i.
func (m Movie) Frame(i uint64) Frame {
	data := make([]byte, m.FrameSize)
	for j := range data {
		data[j] = byte(i + uint64(j))
	}
	return Frame{Movie: m.Name, Index: i, Class: m.Class(i), Data: data}
}

// Frame is one response: a single video frame.
type Frame struct {
	// Movie names the content unit.
	Movie ids.UnitName
	// Index is the frame position.
	Index uint64
	// Class is the frame class.
	Class FrameClass
	// Data is the synthetic payload.
	Data []byte
}

// WireName implements wire.Message.
func (Frame) WireName() string { return "vod.Frame" }

// --- client requests (context updates) ---

// Play resumes streaming.
type Play struct{}

// WireName implements wire.Message.
func (Play) WireName() string { return "vod.Play" }

// Pause stops streaming without ending the session.
type Pause struct{}

// WireName implements wire.Message.
func (Pause) WireName() string { return "vod.Pause" }

// Seek jumps to a frame ("skip to the start of scene 4" in the paper).
type Seek struct {
	// Frame is the target position.
	Frame uint64
}

// WireName implements wire.Message.
func (Seek) WireName() string { return "vod.Seek" }

// SetRate changes the delivery rate ("the rate at which the client wants
// to receive frames").
type SetRate struct {
	// FPS is the new rate.
	FPS float64
}

// WireName implements wire.Message.
func (SetRate) WireName() string { return "vod.SetRate" }

// Context is the session context: exactly the state the paper says a VoD
// session carries, never dispatched.
//
//hafw:handledby -
type Context struct {
	// Pos is the next frame to send.
	Pos uint64
	// Playing reports whether the stream is running.
	Playing bool
	// FPS is the current delivery rate.
	FPS float64
}

// WireName implements wire.Message.
func (Context) WireName() string { return "vod.Context" }

// TakeoverPolicy decides what a new primary does about the uncertainty
// window — the frames that may or may not have been sent between the last
// propagation and the old primary's crash (paper Section 4: "it can either
// transmit the response, risking the client seeing a duplicate, ... or not
// transmit, risking that the client never sees the response. The choice is
// application specific.").
type TakeoverPolicy uint8

// Takeover policies.
const (
	// ResendUncertain restreams from the propagated position: no gaps,
	// up to one propagation period of duplicates.
	ResendUncertain TakeoverPolicy = iota
	// DropUncertain skips to the next GOP boundary: no duplicates, up to
	// one GOP of missing frames.
	DropUncertain
	// MPEGPolicy resends only the I frames in the uncertainty window and
	// resumes full streaming at the next GOP boundary: duplicate I frames
	// are tolerated, incremental P/B frames may be lost — the paper's
	// suggested balance for MPEG video.
	MPEGPolicy
)

func init() {
	wire.Register(Frame{})
	wire.Register(Play{})
	wire.Register(Pause{})
	wire.Register(Seek{})
	wire.Register(SetRate{})
	wire.Register(Context{})
}

// Service is the VoD provider for one movie on one server; it implements
// core.Service.
type Service struct {
	movie  Movie
	policy TakeoverPolicy
}

// New creates the service for a movie.
func New(movie Movie, policy TakeoverPolicy) *Service {
	return &Service{movie: movie, policy: policy}
}

// Movie returns the served movie.
func (s *Service) Movie() Movie { return s.movie }

var _ core.Service = (*Service)(nil)

// NewSession implements core.Service.
func (s *Service) NewSession(unit ids.UnitName, sid ids.SessionID, client ids.ClientID) core.Session {
	return &session{
		movie:  s.movie,
		policy: s.policy,
		ctx:    Context{Playing: true, FPS: s.movie.FPS},
	}
}

// session is one movie session replica; it implements core.Session.
type session struct {
	movie  Movie
	policy TakeoverPolicy

	mu        sync.Mutex
	ctx       Context
	takeovers int // how many times this replica was (re-)activated

	streaming bool
	stop      chan struct{}
	done      chan struct{}
}

var _ core.Session = (*session)(nil)

// ApplyUpdate implements core.Session: the totally ordered client context
// updates, applied at the primary and every backup identically.
func (s *session) ApplyUpdate(body wire.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch m := body.(type) {
	case Play:
		s.ctx.Playing = true
	case Pause:
		s.ctx.Playing = false
	case Seek:
		if m.Frame < s.movie.Frames {
			s.ctx.Pos = m.Frame
		}
	case SetRate:
		if m.FPS > 0 && m.FPS <= 1000 {
			s.ctx.FPS = m.FPS
		}
	}
}

// Activate implements core.Session: start the frame pump. On a takeover
// (any activation after a Restore/Sync from propagated context), the
// configured TakeoverPolicy shapes the uncertainty window.
func (s *session) Activate(r core.Responder) {
	s.mu.Lock()
	s.takeovers++
	takeover := s.takeovers > 1 || s.ctx.Pos > 0
	if takeover {
		s.applyPolicyLocked(r)
	}
	if s.streaming {
		s.mu.Unlock()
		return
	}
	s.streaming = true
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	fps := s.ctx.FPS
	s.mu.Unlock()
	go s.pump(r, fps)
}

// applyPolicyLocked executes the takeover policy at the propagated
// position. Caller holds s.mu.
func (s *session) applyPolicyLocked(r core.Responder) {
	switch s.policy {
	case ResendUncertain:
		// Stream from the propagated position: the pump handles it.
	case DropUncertain:
		s.ctx.Pos = s.nextGOPLocked(s.ctx.Pos)
	case MPEGPolicy:
		// Resend the I frames of the current GOP, then resume at the next
		// GOP boundary.
		next := s.nextGOPLocked(s.ctx.Pos)
		for i := s.ctx.Pos; i < next && i < s.movie.Frames; i++ {
			if s.movie.Class(i) == ClassI {
				r.Send(s.movie.Frame(i))
			}
		}
		s.ctx.Pos = next
	}
}

// nextGOPLocked returns the first GOP boundary at or after i.
func (s *session) nextGOPLocked(i uint64) uint64 {
	if s.movie.GOP == 0 {
		return i
	}
	if i%s.movie.GOP == 0 {
		return i
	}
	next := (i/s.movie.GOP + 1) * s.movie.GOP
	if next > s.movie.Frames {
		next = s.movie.Frames
	}
	return next
}

// pump streams frames at the session rate until stopped.
func (s *session) pump(r core.Responder, fps float64) {
	defer close(s.done)
	if fps <= 0 {
		fps = 24
	}
	interval := time.Duration(float64(time.Second) / fps)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		s.mu.Lock()
		if !s.ctx.Playing || s.ctx.Pos >= s.movie.Frames {
			s.mu.Unlock()
			continue
		}
		frame := s.movie.Frame(s.ctx.Pos)
		// Rate changes take effect by restarting the ticker.
		if s.ctx.FPS != fps {
			fps = s.ctx.FPS
			ticker.Reset(time.Duration(float64(time.Second) / fps))
		}
		s.mu.Unlock()
		if !r.Send(frame) {
			return // demoted: the framework deactivated the responder
		}
		s.mu.Lock()
		if s.ctx.Pos == frame.Index {
			s.ctx.Pos++
		}
		s.mu.Unlock()
	}
}

// Deactivate implements core.Session: stop the pump.
func (s *session) Deactivate() { s.stopPump() }

// Close implements core.Session.
func (s *session) Close() { s.stopPump() }

func (s *session) stopPump() {
	s.mu.Lock()
	if !s.streaming {
		s.mu.Unlock()
		return
	}
	s.streaming = false
	stop, done := s.stop, s.done
	s.mu.Unlock()
	close(stop)
	<-done
}

// Snapshot implements core.Session: the propagated context.
func (s *session) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return core.EncodeContext(s.ctx)
}

// Restore implements core.Session.
func (s *session) Restore(ctx []byte) {
	c, ok := core.DecodeContext[Context](ctx)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctx = c
}

// Sync implements core.Session: a backup folds in the primary's
// propagated position; play state and rate are already exact here because
// every client update was applied locally (the paper's intermediate
// freshness level).
func (s *session) Sync(ctx []byte) {
	c, ok := core.DecodeContext[Context](ctx)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.Pos > s.ctx.Pos {
		s.ctx.Pos = c.Pos
	}
}

// Position returns the replica's current position (testing hook).
func (s *session) Position() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctx.Pos
}
