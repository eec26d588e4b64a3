// Package core implements the paper's framework: a template for highly
// available stateful services built on group communication. A Server hosts
// the replicas of one or more content units; the framework manages the
// three group scales (service group, content groups, session groups), the
// replicated unit database, primary/backup selection, periodic context
// propagation, and client migration. A Client addresses the service
// through abstract group names and never learns which servers exist.
//
// A concrete service (video-on-demand, distance education, refinement
// search, ...) plugs in through the Service and Session interfaces: the
// framework supplies availability, the service supplies semantics.
//
// Servers and clients measure time exclusively through an injected
// clock.Clock (propagation periods, call deadlines, activity stamps), so
// the simulator can drive whole clusters in virtual time.
//
//hafw:simclock
package core

import (
	"fmt"

	"hafw/internal/ids"
	"hafw/internal/store"
	"hafw/internal/wire"
)

// Responder lets a session's service logic send responses to its client.
// It is live only while this server is the session's primary; Send on a
// deactivated responder reports false and sends nothing — guaranteeing the
// paper's "only the primary server sends responses".
type Responder interface {
	// Send transmits one response body to the session's client,
	// point-to-point. It returns false if this server is no longer the
	// session's primary.
	Send(body wire.Message) bool
	// Stream transmits a multi-part reply: it pulls bodies from next and
	// sends each in sequence until next reports exhaustion or this server
	// loses primaryship, whichever comes first, and returns the number
	// sent. Services use it for chunked responses so demotion mid-burst
	// cleanly truncates the burst instead of racing individual Sends.
	Stream(next func() (wire.Message, bool)) int
	// Client returns the session's client.
	Client() ids.ClientID
	// Session returns the session ID.
	Session() ids.SessionID
}

// Service is a content-unit provider: the application half of a framework
// server. One Service instance serves one content unit on one server. All
// methods are invoked from the server's single event goroutine.
type Service interface {
	// NewSession creates service state for a session. It is called when
	// this server enters a session's group (as primary or backup) or takes
	// a session over.
	NewSession(unit ids.UnitName, sid ids.SessionID, client ids.ClientID) Session
}

// Session is the service state of one client session at one server. The
// framework drives it with totally ordered client updates, propagated
// context snapshots, and activation when this server is (or becomes) the
// session's primary.
//
// The three freshness levels of the paper map onto the calls a replica
// receives:
//
//   - primary: ApplyUpdate for every client request, plus its own response
//     activity — exact context;
//   - backup: ApplyUpdate for every client request (they are session-group
//     members) and Sync for every propagation — exact update knowledge,
//     stale response knowledge;
//   - other content-group members: only the unit database's propagated
//     snapshots (they hold no Session at all until they are drafted, at
//     which point Restore seeds one from the database).
type Session interface {
	// ApplyUpdate applies one client request. Called at the primary and
	// every backup, in the same total order.
	ApplyUpdate(body wire.Message)
	// Activate makes this replica the primary: the service should begin
	// responding through r (immediately and/or from its own timers).
	Activate(r Responder)
	// Deactivate revokes primaryship. The service must stop responding;
	// the framework additionally disables the responder.
	Deactivate()
	// Snapshot encodes the session context for propagation to the unit
	// database. Called periodically at the primary. A service declares its
	// context as a registered wire.Message and encodes it with
	// EncodeContext; Restore and Sync read it back with DecodeContext.
	Snapshot() []byte
	// Restore seeds the session from a propagated context (when a replica
	// is drafted into the session group, or a fresh primary takes over
	// with only unit-database knowledge). A zero-length context means no
	// propagation ever happened: restore to the initial state.
	Restore(ctx []byte)
	// Sync folds a fresher propagated context into a live backup replica
	// (position knowledge flows only through propagation; update knowledge
	// arrived via ApplyUpdate). Not called on the primary.
	Sync(ctx []byte)
	// Close releases the session's resources (client ended the session, or
	// this replica left the session group).
	Close()
}

// EncodeContext encodes a session context for Session.Snapshot with the
// wire codec. Equal contexts encode to equal bytes, which propagation
// relies on to skip unchanged contexts. It panics if m's type is not
// registered, a programming error.
func EncodeContext(m wire.Message) []byte {
	b, err := wire.EncodeMessage(m)
	if err != nil {
		panic(fmt.Sprintf("core: encode context %s: %v", m.WireName(), err))
	}
	return b
}

// DecodeContext decodes a context written by EncodeContext, or by an older
// build that encoded contexts with gob (a data directory it left behind is
// still recovered). It returns false for an empty context, meaning none
// was ever propagated, and for bytes that are not a T.
func DecodeContext[T wire.Message](b []byte) (T, bool) {
	return store.Decode[T](b)
}
