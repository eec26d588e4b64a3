package store

import (
	"fmt"

	"hafw/internal/ids"
	"hafw/internal/unitdb"
	"hafw/internal/wire"
)

// Op identifies one kind of unit-database mutation in the log.
type Op uint8

// Log operation kinds. The four ops cover every mutation the framework
// applies to a unit database outside of merges (merges are captured by
// checkpoints instead, since they can rewrite arbitrary subsets of the
// database).
const (
	// OpCreate records a session creation.
	OpCreate Op = iota + 1
	// OpClose records a session removal (leaves a tombstone on replay).
	OpClose
	// OpCtx records a context propagation or handoff application.
	OpCtx
	// OpAlloc records a primary/backup allocation change.
	OpAlloc
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpClose:
		return "close"
	case OpCtx:
		return "ctx"
	case OpAlloc:
		return "alloc"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Record is one logged mutation. Only the fields relevant to Op are set.
// It is only logged, never dispatched.
//
//hafw:handledby -
type Record struct {
	// Op is the mutation kind.
	Op Op
	// SID identifies the session.
	SID ids.SessionID
	// Client is the session's client (OpCreate).
	Client ids.ClientID
	// Primary and Backups are the allocation (OpAlloc).
	Primary ids.ProcessID
	Backups []ids.ProcessID
	// Ctx and Stamp are the propagated context (OpCtx).
	Ctx   []byte
	Stamp uint64
}

// WireName implements wire.Message.
func (Record) WireName() string { return "store.Record" }

func init() { wire.Register(Record{}) }

// Apply replays the mutation into a database. Replay is idempotent for
// OpCtx (the stamp check) and OpClose (tombstones), and ordered appends
// keep OpCreate/OpAlloc deterministic.
func (r Record) Apply(db *unitdb.DB) {
	switch r.Op {
	case OpCreate:
		db.Put(unitdb.Session{ID: r.SID, Client: r.Client})
	case OpClose:
		db.Remove(r.SID)
	case OpCtx:
		db.UpdateContext(r.SID, r.Ctx, r.Stamp)
	case OpAlloc:
		db.SetAllocation(r.SID, r.Primary, r.Backups)
	}
}
