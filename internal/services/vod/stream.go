// Chunked streaming plane: the vod service rebuilt on internal/media.
//
// Where the frame plane (vod.go) pushes fixed-rate frames from a server
// clock, the stream plane is pull-driven, shaped like HLS over the
// session layer: the client fetches the Manifest, then issues windowed
// GetChunk pulls; the primary answers with CRC-sealed chunk records. Each
// pull doubles as the acknowledgement — Ack is the client's contiguous
// frontier — and because pulls ride the totally ordered session update
// stream, every backup applies them too. The session context (playback
// position, requested-ahead window, bitrate) is therefore *exact* at
// every replica up to the last pull: a promoted backup resumes at the
// acked offset and retransmits only the outstanding window [Acked,
// ReqUpTo), never re-delivering a chunk the client acknowledged and never
// leaving a gap.
package vod

import (
	"sync"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/media"
	"hafw/internal/metrics"
	"hafw/internal/wire"
)

// MaxWindow bounds the chunks one pull may request; larger windows are
// clamped, keeping a single takeover retransmission burst bounded.
const MaxWindow = 256

// --- wire messages ---

// GetManifest asks the primary for the title's layout. It carries no
// state, so replaying it after a takeover is harmless.
type GetManifest struct{}

// WireName implements wire.Message.
func (GetManifest) WireName() string { return "vod.GetManifest" }

// ManifestResp answers GetManifest.
type ManifestResp struct {
	// Manifest is the title layout.
	Manifest media.Manifest
}

// WireName implements wire.Message.
func (ManifestResp) WireName() string { return "vod.Manifest" }

// GetChunk is one windowed pull: it acknowledges everything before Ack
// and requests the chunks [From, From+Window). In steady state From
// equals the end of the previous request, so ranges tile without overlap;
// after a failover the player may re-pull with From == Ack to re-request
// the outstanding range.
type GetChunk struct {
	// Ack is the client's contiguous frontier: every chunk before it has
	// been received and verified. It becomes the session's resume point.
	Ack media.Pos
	// From starts the requested range.
	From media.Pos
	// Window is the number of chunks requested.
	Window int
	// BitrateBps reports the client's playback rate for the propagated
	// context (zero: unchanged).
	BitrateBps int
}

// WireName implements wire.Message.
func (GetChunk) WireName() string { return "vod.GetChunk" }

// ChunkResp carries one sealed chunk record to the client.
type ChunkResp struct {
	// Chunk is the media payload with its CRC.
	Chunk media.Chunk
}

// WireName implements wire.Message.
func (ChunkResp) WireName() string { return "vod.Chunk" }

func init() {
	wire.Register(GetManifest{})
	wire.Register(ManifestResp{})
	wire.Register(GetChunk{})
	wire.Register(ChunkResp{})
	wire.Register(StreamContext{})
}

// StreamContext is the propagated session context of the stream plane:
// the paper's playback position generalized to (acked frontier,
// outstanding window, bitrate). Because every field is driven by totally
// ordered client pulls, backups hold it exactly; propagation under T only
// serves replicas that joined after the pulls (Restore path). It is
// never dispatched.
//
//hafw:handledby -
type StreamContext struct {
	// Acked is the client's contiguous frontier as of the last pull.
	Acked media.Pos
	// ReqUpTo is the exclusive end of the furthest requested range.
	ReqUpTo media.Pos
	// Window is the window size of the last pull.
	Window int
	// BitrateBps is the client's reported playback rate.
	BitrateBps int
	// Pulls counts GetChunk updates applied.
	Pulls uint64
}

// WireName implements wire.Message.
func (StreamContext) WireName() string { return "vod.StreamContext" }

// Stream is the chunked VoD provider for one title on one server; it
// implements core.Service over a media.Store.
type Stream struct {
	store media.Store
	man   media.Manifest

	// Nil-safe metric handles (left nil without a registry).
	chunksSent  *metrics.Counter
	chunkBytes  *metrics.Counter
	readErrors  *metrics.Counter
	takeovers   *metrics.Counter
	ackedChunks *metrics.Gauge
}

// NewStream creates the streaming service over a chunk store. reg, when
// non-nil, receives the data-plane metrics (chunk_bytes_total and
// friends).
func NewStream(store media.Store, reg *metrics.Registry) *Stream {
	s := &Stream{store: store, man: store.Manifest()}
	if reg != nil {
		s.chunksSent = reg.Counter("chunks_sent_total")
		s.chunkBytes = reg.Counter("chunk_bytes_total")
		s.readErrors = reg.Counter("chunk_read_errors_total")
		s.takeovers = reg.Counter("stream_takeover_resumes_total")
		s.ackedChunks = reg.Gauge("stream_acked_chunks")
	}
	return s
}

// Manifest returns the served title's layout.
func (s *Stream) Manifest() media.Manifest { return s.man }

var _ core.Service = (*Stream)(nil)

// NewSession implements core.Service.
func (s *Stream) NewSession(unit ids.UnitName, sid ids.SessionID, client ids.ClientID) core.Session {
	ss := &streamSession{svc: s, ctx: StreamContext{BitrateBps: s.man.BitrateBps}}
	ss.cond = sync.NewCond(&ss.mu)
	return ss
}

// streamSession is one stream session replica; it implements
// core.Session. A sender goroutine, live only while this replica is
// primary, drains the requested range off the event goroutine so multi-MB
// bursts never block update application.
type streamSession struct {
	svc  *Stream
	cond *sync.Cond

	mu  sync.Mutex
	ctx StreamContext
	// next/end delimit the range the sender still has to transmit.
	next, end media.Pos
	// wantManifest marks an unanswered GetManifest.
	wantManifest bool
	activations  int
	running      bool // sender goroutine live
	senderStop   bool
	done         chan struct{}
}

var _ core.Session = (*streamSession)(nil)

// ApplyUpdate implements core.Session: pulls are the totally ordered
// context updates, applied identically at the primary and every backup.
func (ss *streamSession) ApplyUpdate(body wire.Message) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	switch m := body.(type) {
	case GetManifest:
		ss.wantManifest = true
	case GetChunk:
		man := ss.svc.man
		w := m.Window
		if w < 1 {
			w = 1
		}
		if w > MaxWindow {
			w = MaxWindow
		}
		ack, from := m.Ack, m.From
		if !man.Valid(ack) && ack != man.End() {
			return // malformed pull: ignore
		}
		if !man.Valid(from) && from != man.End() {
			return
		}
		if ss.ctx.Acked.Before(ack) {
			ss.ctx.Acked = ack
			if ss.svc.ackedChunks != nil {
				ss.svc.ackedChunks.Set(int64(man.Index(ack)))
			}
		}
		end := man.Advance(from, w)
		if ss.ctx.ReqUpTo.Before(end) {
			ss.ctx.ReqUpTo = end
		}
		ss.ctx.Window = w
		if m.BitrateBps > 0 {
			ss.ctx.BitrateBps = m.BitrateBps
		}
		ss.ctx.Pulls++
		if ss.running {
			// Serve exactly what this pull asked for; a recovery re-pull
			// (From back at Ack) rewinds the cursor on purpose.
			ss.next, ss.end = from, end
		}
	}
	ss.cond.Broadcast()
}

// Activate implements core.Session. On a takeover — any activation after
// pulls were applied or context restored — the new primary retransmits
// the outstanding range [Acked, ReqUpTo): nothing the client acked is
// re-delivered, and nothing requested is skipped, so the client resumes
// mid-segment with no gap.
func (ss *streamSession) Activate(r core.Responder) {
	ss.mu.Lock()
	ss.activations++
	if ss.ctx.Pulls > 0 || ss.ctx.Acked != (media.Pos{}) {
		ss.next, ss.end = ss.ctx.Acked, ss.ctx.ReqUpTo
		if ss.activations > 1 || ss.ctx.Pulls > 0 {
			if ss.svc.takeovers != nil {
				ss.svc.takeovers.Inc()
			}
		}
	}
	if ss.running {
		ss.mu.Unlock()
		return
	}
	ss.running = true
	ss.senderStop = false
	ss.done = make(chan struct{})
	ss.cond.Broadcast()
	ss.mu.Unlock()
	go ss.sender(r)
}

// sender drains queued work through the responder until deactivated. It
// runs outside the server's event goroutine, so store reads and transport
// backpressure never stall update application; demotion truncates a burst
// via the responder and the goroutine parks until stopped.
func (ss *streamSession) sender(r core.Responder) {
	defer close(ss.done)
	for {
		ss.mu.Lock()
		for !ss.senderStop && !ss.workLocked() {
			ss.cond.Wait()
		}
		if ss.senderStop {
			ss.mu.Unlock()
			return
		}
		ss.mu.Unlock()
		// A demotion mid-burst makes Send refuse and Stream return early;
		// the loop then drains the remaining cursor without effect and
		// parks until Deactivate stops the goroutine.
		r.Stream(ss.nextPiece)
	}
}

// workLocked reports whether the sender has anything to transmit.
func (ss *streamSession) workLocked() bool {
	return ss.wantManifest || (ss.next.Before(ss.end) && ss.svc.man.Valid(ss.next))
}

// nextPiece produces the next response body for Responder.Stream, or
// false when the queue is drained. Store reads happen outside the
// session lock so disk latency never blocks update application.
func (ss *streamSession) nextPiece() (wire.Message, bool) {
	for {
		msg, p, ok := ss.claimNext()
		if !ok {
			return nil, false
		}
		if msg != nil {
			return msg, true
		}
		c, err := ss.svc.store.Chunk(p)
		if err != nil {
			if ss.svc.readErrors != nil {
				ss.svc.readErrors.Inc()
			}
			continue // unreadable record: skip; the client re-pulls it
		}
		if ss.svc.chunksSent != nil {
			ss.svc.chunksSent.Inc()
			ss.svc.chunkBytes.Add(uint64(len(c.Data)))
		}
		return ChunkResp{Chunk: c}, true
	}
}

// claimNext advances the send queue under the lock: it returns the
// pending manifest response when one is owed, otherwise the claimed
// chunk position. ok is false when the queue is drained or the sender
// was stopped.
func (ss *streamSession) claimNext() (msg wire.Message, p media.Pos, ok bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.senderStop {
		return nil, media.Pos{}, false
	}
	if ss.wantManifest {
		ss.wantManifest = false
		return ManifestResp{Manifest: ss.svc.man}, media.Pos{}, true
	}
	if !ss.next.Before(ss.end) || !ss.svc.man.Valid(ss.next) {
		return nil, media.Pos{}, false
	}
	p = ss.next
	ss.next = ss.svc.man.Next(p)
	return nil, p, true
}

// Deactivate implements core.Session: stop the sender; a promoted peer
// now owns transmission.
func (ss *streamSession) Deactivate() { ss.stopSender() }

// Close implements core.Session.
func (ss *streamSession) Close() { ss.stopSender() }

func (ss *streamSession) stopSender() {
	ss.mu.Lock()
	if !ss.running {
		ss.mu.Unlock()
		return
	}
	ss.running = false
	ss.senderStop = true
	done := ss.done
	ss.cond.Broadcast()
	ss.mu.Unlock()
	<-done
}

// Snapshot implements core.Session: the propagated stream context.
func (ss *streamSession) Snapshot() []byte {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return core.EncodeContext(ss.ctx)
}

// Restore implements core.Session: a cold replica adopts the propagated
// context wholesale.
func (ss *streamSession) Restore(ctx []byte) {
	c, ok := core.DecodeContext[StreamContext](ctx)
	if !ok {
		return
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.ctx = c
}

// Sync implements core.Session: a warm backup folds in the primary's
// propagated context. Pull-derived state is already exact here, so only
// a strictly fresher context (more pulls seen by the primary than applied
// locally, possible during a join race) advances anything.
func (ss *streamSession) Sync(ctx []byte) {
	c, ok := core.DecodeContext[StreamContext](ctx)
	if !ok {
		return
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if c.Pulls > ss.ctx.Pulls {
		ss.ctx = c
	}
}

// Context returns the replica's current stream context (testing hook).
func (ss *streamSession) Context() StreamContext {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.ctx
}
