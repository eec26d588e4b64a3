// Package ledger is the tagged-ledger reference service the experiments
// and the simulator measure with: every update carries a unique tag, the
// session context is the ordered tag history, and the primary acks a tag
// by echoing it. A tag the client saw acked must survive any failure short
// of the paper's §4 loss patterns, so "does the current primary still hold
// tag X?" is the lost-update criterion made executable.
//
// The wire names keep the "sim." prefix they were first published under:
// the schema is append-only.
package ledger

import (
	"sync"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/wire"
)

// Update appends a tag to the session's history; the primary echoes it
// back when Echo is set.
type Update struct {
	// Tag identifies the update for loss accounting.
	Tag string
	// Echo requests an immediate response from the primary.
	Echo bool
}

// WireName implements wire.Message.
func (Update) WireName() string { return "sim.LedgerUpdate" }

// Echo is the primary's ack for one tag.
//
//hafw:handledby hafw/internal/sim
type Echo struct {
	Tag string
}

// WireName implements wire.Message.
func (Echo) WireName() string { return "sim.LedgerEcho" }

// Dump asks the primary for the full tag history.
type Dump struct{}

// WireName implements wire.Message.
func (Dump) WireName() string { return "sim.LedgerDump" }

// Tags is the primary's reply to a Dump, and the session context a
// primary propagates.
//
//hafw:handledby hafw/internal/sim
type Tags struct {
	Tags []string
}

// WireName implements wire.Message.
func (Tags) WireName() string { return "sim.LedgerTags" }

func init() {
	wire.Register(Update{})
	wire.Register(Echo{})
	wire.Register(Dump{})
	wire.Register(Tags{})
}

// Service implements core.Service. It keeps a registry of the sessions
// this server holds a replica of, so a harness can ask any server which
// tags it knows.
type Service struct {
	mu       sync.Mutex
	sessions map[ids.SessionID]*session
}

// New returns a ledger service with an empty session registry.
func New() *Service {
	return &Service{sessions: make(map[ids.SessionID]*session)}
}

// NewSession implements core.Service.
func (l *Service) NewSession(unit ids.UnitName, sid ids.SessionID, client ids.ClientID) core.Session {
	s := &session{svc: l, sid: sid}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sessions[sid] = s
	return s
}

// History returns a copy of the tag history this server holds for sid,
// and whether it holds a replica of sid at all.
func (l *Service) History(sid ids.SessionID) ([]string, bool) {
	l.mu.Lock()
	s := l.sessions[sid]
	l.mu.Unlock()
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.tags...), true
}

// session implements core.Session: context = ordered tag history.
type session struct {
	svc *Service
	sid ids.SessionID

	mu     sync.Mutex
	tags   []string
	active bool
	r      core.Responder
}

// ApplyUpdate implements core.Session.
func (s *session) ApplyUpdate(body wire.Message) {
	var reply wire.Message
	s.mu.Lock()
	switch m := body.(type) {
	case Update:
		s.tags = append(s.tags, m.Tag)
		if m.Echo {
			reply = Echo{Tag: m.Tag}
		}
	case Dump:
		reply = Tags{Tags: append([]string(nil), s.tags...)}
	}
	active, r := s.active, s.r
	s.mu.Unlock()
	if reply != nil && active && r != nil {
		r.Send(reply)
	}
}

// Activate implements core.Session.
func (s *session) Activate(r core.Responder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active, s.r = true, r
}

// Deactivate implements core.Session.
func (s *session) Deactivate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active, s.r = false, nil
}

// Close implements core.Session: the replica leaves the registry.
func (s *session) Close() {
	s.Deactivate()
	s.svc.mu.Lock()
	defer s.svc.mu.Unlock()
	if s.svc.sessions[s.sid] == s {
		delete(s.svc.sessions, s.sid)
	}
}

// Snapshot implements core.Session.
func (s *session) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return core.EncodeContext(Tags{Tags: s.tags})
}

// Restore implements core.Session.
func (s *session) Restore(ctx []byte) {
	c, _ := core.DecodeContext[Tags](ctx)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tags = c.Tags
}

// Sync implements core.Session: propagated context only ever extends the
// history, so the longer list wins.
func (s *session) Sync(ctx []byte) {
	c, _ := core.DecodeContext[Tags](ctx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(c.Tags) > len(s.tags) {
		s.tags = c.Tags
	}
}
