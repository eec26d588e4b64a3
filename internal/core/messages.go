package core

import (
	"strconv"

	"hafw/internal/ids"
	"hafw/internal/unitdb"
	"hafw/internal/wire"
)

// ServiceGroup is the group every server joins; clients contact it to
// discover content units (the paper assumes clients know this name a
// priori).
const ServiceGroup ids.GroupName = "svc"

// ContentGroup returns the group name for a content unit's replicas.
func ContentGroup(unit ids.UnitName) ids.GroupName {
	return ids.GroupName("content/" + string(unit))
}

// SessionGroup returns the deterministic group name for a session: every
// content-group member computes it locally, with no coordination (paper
// Section 3.3: "the group name is computed deterministically by each of
// the servers").
func SessionGroup(unit ids.UnitName, sid ids.SessionID) ids.GroupName {
	return ids.GroupName("session/" + string(unit) + "/" + strconv.FormatUint(uint64(sid), 10))
}

// --- client → service group ---

// ListUnits asks the service which content units exist. The reply comes
// from a single deterministic member (the least process in the service
// group view).
type ListUnits struct{}

// WireName implements wire.Message.
func (ListUnits) WireName() string { return "core.ListUnits" }

// UnitInfo describes one available content unit.
type UnitInfo struct {
	// Unit names the content unit.
	Unit ids.UnitName
	// Group is the unit's content group name.
	Group ids.GroupName
	// Replicas is the current number of servers holding the unit.
	Replicas int
}

// UnitList is the reply to ListUnits.
type UnitList struct {
	// Units lists the available content units, sorted by name.
	Units []UnitInfo
}

// WireName implements wire.Message.
func (UnitList) WireName() string { return "core.UnitList" }

// --- client → content group ---

// StartSession asks a content group to open a session for the sending
// client. Delivered in total order, every member creates the same session
// record and computes the same allocation; the chosen primary replies.
type StartSession struct {
	// Unit names the content unit (redundant with the group, kept for
	// sanity checking).
	Unit ids.UnitName
}

// WireName implements wire.Message.
func (StartSession) WireName() string { return "core.StartSession" }

// SessionStarted is the primary's reply to StartSession.
type SessionStarted struct {
	// Unit echoes the content unit.
	Unit ids.UnitName
	// Session is the new session's ID.
	Session ids.SessionID
	// Group is the session group the client should address from now on.
	Group ids.GroupName
	// TC is the responding primary's trace context (causally downstream of
	// the client's StartSession), for the observability layer.
	TC wire.TraceContext
	// Members is the session group's membership as the primary sees it when
	// it replies (it replies once the group has formed). The client sends
	// to these servers without resolving the group first.
	Members []ids.ProcessID
}

// WireName implements wire.Message.
func (SessionStarted) WireName() string { return "core.SessionStarted" }

// --- client → session group ---

// ClientRequest carries one client context update or command into the
// session group. The primary and all backups apply it; only the primary
// responds (paper Section 3.1).
type ClientRequest struct {
	// Session identifies the session.
	Session ids.SessionID
	// Body is the service-specific request.
	Body wire.Message
}

// WireName implements wire.Message.
func (ClientRequest) WireName() string { return "core.ClientRequest" }

// EndSession closes a session.
type EndSession struct {
	// Session identifies the session.
	Session ids.SessionID
}

// WireName implements wire.Message.
func (EndSession) WireName() string { return "core.EndSession" }

// --- server → client (point-to-point) ---

// Response carries one service response from the primary to the client.
// Responses deliberately bypass group ordering (paper: "these are sent in
// point-to-point messages"), which is why backups do not know which
// responses were sent — the uncertainty Section 4 analyzes.
type Response struct {
	// Session identifies the session.
	Session ids.SessionID
	// Seq numbers responses within the session at the sending primary,
	// starting over from the propagated context on takeover; clients use
	// it to detect duplicates.
	Seq uint64
	// Body is the service-specific response.
	Body wire.Message
	// TC is the primary's trace context for handling the request this
	// response answers, letting clients stitch request → response across a
	// failover.
	TC wire.TraceContext
}

// WireName implements wire.Message.
func (Response) WireName() string { return "core.Response" }

// SessionEnded confirms an EndSession to the client.
type SessionEnded struct {
	// Session identifies the session.
	Session ids.SessionID
	// TC is the primary's trace context, for the observability layer.
	TC wire.TraceContext
}

// WireName implements wire.Message.
func (SessionEnded) WireName() string { return "core.SessionEnded" }

// --- server ↔ server ---

// PropagateCtx is the primary's periodic propagation of session contexts
// to the content group (paper Section 3.1; every half second in the VoD
// instance of [2]).
type PropagateCtx struct {
	// Unit names the content unit.
	Unit ids.UnitName
	// Entries carries one snapshot per session this primary serves.
	Entries []CtxEntry
	// SentUnixNano is the primary's wall clock at send time; receivers
	// derive propagation lag from it (telemetry only — replicated state
	// never reads it).
	SentUnixNano int64
}

// WireName implements wire.Message.
func (PropagateCtx) WireName() string { return "core.PropagateCtx" }

// CtxEntry is one session's propagated context.
type CtxEntry struct {
	// Session identifies the session.
	Session ids.SessionID
	// Ctx is the service-encoded session context.
	Ctx []byte
	// Stamp is the context generation (monotone per session).
	Stamp uint64
}

// SessionClosed tells the content group to drop a session from the unit
// database.
type SessionClosed struct {
	// Unit names the content unit.
	Unit ids.UnitName
	// Session identifies the session.
	Session ids.SessionID
}

// WireName implements wire.Message.
func (SessionClosed) WireName() string { return "core.SessionClosed" }

// StateOffer opens the join-time state exchange (paper Section 3.4: on
// views with joiners, "the servers first exchange information about
// clients"). Instead of multicasting full database snapshots, each member
// first advertises per-session version stamps; members then send only the
// records some peer is missing or holds stale (StateDelta). A cold joiner
// still receives one full copy — from a single designated sender rather
// than every member.
type StateOffer struct {
	// Unit names the content unit.
	Unit ids.UnitName
	// ViewPV and ViewN identify the group view the exchange belongs to, so
	// late messages from superseded exchanges are discarded.
	ViewPV ids.ViewID
	ViewN  uint64
	// Offer is the sender's per-session stamp vector.
	Offer unitdb.Offer
}

// WireName implements wire.Message.
func (StateOffer) WireName() string { return "core.StateOffer" }

// StateDelta carries the session records a member was elected to ship
// after all offers of an exchange are in. Empty deltas still travel: every
// member sends exactly one per exchange, so receipt of all deltas is the
// merge barrier.
type StateDelta struct {
	// Unit names the content unit.
	Unit ids.UnitName
	// ViewPV and ViewN identify the exchange's view.
	ViewPV ids.ViewID
	ViewN  uint64
	// Snap holds only the records this sender was elected to ship.
	Snap unitdb.Snapshot
}

// WireName implements wire.Message.
func (StateDelta) WireName() string { return "core.StateDelta" }

// Handoff carries up-to-date context from a demoted (but alive) primary
// directly to the new primary during load-balancing migration (paper
// Section 3.4: "the old primary sends up-to-date context information to
// the new primary").
type Handoff struct {
	// Unit names the content unit.
	Unit ids.UnitName
	// Session identifies the migrated session.
	Session ids.SessionID
	// Ctx is the encoded context.
	Ctx []byte
	// Stamp is the context generation.
	Stamp uint64
	// RespSeq is the old primary's response counter, letting the new
	// primary continue numbering without a duplicate window.
	RespSeq uint64
	// TC is the old primary's trace context for the migration, linking the
	// handoff into the view-change timeline.
	TC wire.TraceContext
}

// WireName implements wire.Message.
func (Handoff) WireName() string { return "core.Handoff" }

func init() {
	wire.Register(ListUnits{})
	wire.Register(UnitList{})
	wire.Register(StartSession{})
	wire.Register(SessionStarted{})
	wire.Register(ClientRequest{})
	wire.Register(EndSession{})
	wire.Register(Response{})
	wire.Register(SessionEnded{})
	wire.Register(PropagateCtx{})
	wire.Register(SessionClosed{})
	wire.Register(StateOffer{})
	wire.Register(StateDelta{})
	wire.Register(Handoff{})
}
