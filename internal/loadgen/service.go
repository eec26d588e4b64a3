package loadgen

import (
	"sync"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/wire"
)

// EchoReq is one load-generator request: the primary echoes Seq back, the
// backups apply it silently. Pad carries the configured request size.
type EchoReq struct {
	// Seq is the driver's per-session request sequence number.
	Seq uint64
	// Pad is workload padding (request size knob); its content is ignored.
	Pad []byte
}

// WireName implements wire.Message.
func (EchoReq) WireName() string { return "loadgen.EchoReq" }

// EchoResp is the primary's answer to an EchoReq.
type EchoResp struct {
	// Seq echoes the request's sequence number.
	Seq uint64
}

// WireName implements wire.Message.
func (EchoResp) WireName() string { return "loadgen.EchoResp" }

func init() {
	wire.Register(EchoReq{})
	wire.Register(EchoResp{})
	wire.Register(EchoContext{})
}

// EchoService is the measurement service: every applied EchoReq is
// answered by the primary with an EchoResp carrying the same sequence
// number, so a driver can time request → response round trips through the
// full framework path (open-group send, total order, primary response).
// It is a real framework service — backups apply every update, context
// propagates periodically, and takeover replays the uncertainty window —
// so measured latency includes everything a stateful service pays.
type EchoService struct{}

// NewEchoService creates the echo measurement service.
func NewEchoService() *EchoService { return &EchoService{} }

// NewSession implements core.Service.
func (*EchoService) NewSession(unit ids.UnitName, sid ids.SessionID, client ids.ClientID) core.Session {
	return &echoSession{}
}

// EchoContext is the propagated session context, never dispatched.
//
//hafw:handledby -
type EchoContext struct {
	// Applied counts applied requests.
	Applied uint64
	// LastSeq is the highest applied sequence number.
	LastSeq uint64
}

// WireName implements wire.Message.
func (EchoContext) WireName() string { return "loadgen.EchoContext" }

type echoSession struct {
	mu     sync.Mutex
	ctx    EchoContext
	active bool
	r      core.Responder
}

func (s *echoSession) ApplyUpdate(body wire.Message) {
	req, ok := body.(EchoReq)
	if !ok {
		return
	}
	s.mu.Lock()
	s.ctx.Applied++
	if req.Seq > s.ctx.LastSeq {
		s.ctx.LastSeq = req.Seq
	}
	active, r := s.active, s.r
	s.mu.Unlock()
	if active && r != nil {
		r.Send(EchoResp{Seq: req.Seq})
	}
}

func (s *echoSession) Activate(r core.Responder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active, s.r = true, r
}

func (s *echoSession) Deactivate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active, s.r = false, nil
}

func (s *echoSession) Close() { s.Deactivate() }

func (s *echoSession) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return core.EncodeContext(s.ctx)
}

func (s *echoSession) Restore(ctx []byte) {
	c, ok := core.DecodeContext[EchoContext](ctx)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctx = c
}

func (s *echoSession) Sync(ctx []byte) {
	c, ok := core.DecodeContext[EchoContext](ctx)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.Applied > s.ctx.Applied {
		s.ctx = c
	}
}
