// Package unitdb implements the unit database of the paper (Section 3.1):
// the per-content-unit replicated record of live sessions, their
// primary/backup allocations, and the periodically propagated session
// context.
//
// The database is replicated by applying the same totally ordered
// operations at every member of a content group; every mutating method is
// deterministic, so replicas that process identical operation sequences
// hold identical state (the property tests verify this). The allocation
// functions are likewise deterministic, which is what lets content-group
// members independently select the same primary and backups with no
// message exchange after a crash-only view change (Section 3.4).
package unitdb

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"hafw/internal/ids"
	"hafw/internal/ranges"
	"hafw/internal/wire"
)

// Session is one client session's record in the unit database.
type Session struct {
	// ID identifies the session; allocated in total order, so all replicas
	// agree.
	ID ids.SessionID
	// Client is the session's client.
	Client ids.ClientID
	// Primary is the server currently responsible for responding.
	Primary ids.ProcessID
	// Backups are the session-group members besides the primary, in
	// preference order for takeover.
	Backups []ids.ProcessID
	// Context is the last propagated session context, opaque to the
	// framework (the service defines its encoding).
	Context []byte
	// Stamp is the context generation number; higher is fresher. It
	// orders context propagations and resolves merge conflicts.
	Stamp uint64
}

// clone deep-copies a session record.
func (s *Session) clone() *Session {
	cp := *s
	cp.Backups = append([]ids.ProcessID(nil), s.Backups...)
	cp.Context = append([]byte(nil), s.Context...)
	return &cp
}

// SessionGroup returns the session group membership: primary first, then
// backups.
func (s *Session) SessionGroup() []ids.ProcessID {
	out := make([]ids.ProcessID, 0, 1+len(s.Backups))
	if s.Primary != ids.Nil {
		out = append(out, s.Primary)
	}
	return append(out, s.Backups...)
}

// InGroup reports whether p is the primary or a backup.
func (s *Session) InGroup(p ids.ProcessID) bool {
	if s.Primary == p {
		return true
	}
	for _, b := range s.Backups {
		if b == p {
			return true
		}
	}
	return false
}

// DB is the unit database for one content unit. It is a plain data
// structure: the caller (the framework server) serializes access by
// driving it from the single GCS event goroutine.
type DB struct {
	// Unit names the content unit.
	Unit ids.UnitName

	sessions map[ids.SessionID]*Session
	// tombstones records removed session IDs. Session IDs are allocated
	// from a monotone counter and never reused, so "session X was closed"
	// is permanent truth; tombstones let merges (and rejoining replicas
	// recovering a stale database from disk) distinguish "closed while you
	// were away" from "never heard of it", instead of resurrecting closed
	// sessions. They are kept as ranges: once the replicas agree, the
	// closed IDs are every ID up to nextSID bar the live sessions, so the
	// set costs at most one range per live session however many sessions
	// were ever served. nTombs counts the IDs in it.
	tombstones ranges.Set
	nTombs     int
	nextSID    uint64
}

// New creates an empty database for a unit.
func New(unit ids.UnitName) *DB {
	return &DB{Unit: unit, sessions: make(map[ids.SessionID]*Session)}
}

// Len returns the number of live sessions.
func (db *DB) Len() int { return len(db.sessions) }

// CreateSession registers a new session for a client and returns its
// record. Session IDs are assigned from a deterministic counter, so
// replicas applying the same operation sequence assign the same IDs.
func (db *DB) CreateSession(client ids.ClientID) *Session {
	db.nextSID++
	s := &Session{ID: ids.SessionID(db.nextSID), Client: client}
	db.sessions[s.ID] = s
	return s
}

// Get returns the session record, or nil if unknown. The returned pointer
// is live; mutate it only through DB methods.
func (db *DB) Get(sid ids.SessionID) *Session {
	return db.sessions[sid]
}

// Remove deletes a session (client ended it, or it was abandoned) and
// leaves a tombstone so later merges cannot resurrect it.
func (db *DB) Remove(sid ids.SessionID) {
	delete(db.sessions, sid)
	if db.tombstones.Add(uint64(sid)) {
		db.nTombs++
	}
}

// Put inserts (or replaces) a session record wholesale, advancing the ID
// counter past it. It is the replay primitive used by the durable store's
// recovery path; normal operation goes through CreateSession.
func (db *DB) Put(s Session) {
	if db.Tombstoned(s.ID) {
		return
	}
	db.sessions[s.ID] = s.clone()
	if uint64(s.ID) > db.nextSID {
		db.nextSID = uint64(s.ID)
	}
}

// Tombstoned reports whether a session was removed.
func (db *DB) Tombstoned(sid ids.SessionID) bool { return db.tombstones.Has(uint64(sid)) }

// Tombstones is the number of tombstoned sessions.
func (db *DB) Tombstones() int { return db.nTombs }

// TombstoneRanges is the number of ranges the tombstones are kept as,
// which is what they cost in memory.
func (db *DB) TombstoneRanges() int { return db.tombstones.Len() }

// TombstoneIDs returns all tombstoned session IDs, sorted. Offers,
// snapshots and checkpoints carry this list.
func (db *DB) TombstoneIDs() []ids.SessionID { return ranges.Values[ids.SessionID](db.tombstones) }

// addTombstones tombstones every ID of a sorted list and drops the
// records it closes. A closed session never comes back, whatever order
// merges arrive in.
func (db *DB) addTombstones(list []ids.SessionID) {
	added := ranges.AddSorted(&db.tombstones, list)
	if added == 0 {
		return
	}
	db.nTombs += int(added)
	for sid := range db.sessions {
		if db.Tombstoned(sid) {
			delete(db.sessions, sid)
		}
	}
}

// Sessions returns all session records sorted by ID.
func (db *DB) Sessions() []*Session {
	out := make([]*Session, 0, len(db.sessions))
	for _, s := range db.sessions {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// UpdateContext records a context propagation. Stale stamps (≤ current)
// are ignored, making propagation idempotent and reordering-safe across
// merges.
func (db *DB) UpdateContext(sid ids.SessionID, ctx []byte, stamp uint64) bool {
	s := db.sessions[sid]
	if s == nil || stamp <= s.Stamp {
		return false
	}
	s.Context = append([]byte(nil), ctx...)
	s.Stamp = stamp
	return true
}

// SetAllocation records a session's primary and backups.
func (db *DB) SetAllocation(sid ids.SessionID, primary ids.ProcessID, backups []ids.ProcessID) {
	s := db.sessions[sid]
	if s == nil {
		return
	}
	s.Primary = primary
	s.Backups = append([]ids.ProcessID(nil), backups...)
}

// PrimaryLoad returns the number of sessions for which p is primary.
func (db *DB) PrimaryLoad(p ids.ProcessID) int {
	n := 0
	for _, s := range db.sessions {
		if s.Primary == p {
			n++
		}
	}
	return n
}

// GroupLoad returns the number of sessions in whose session group p
// participates (primary or backup).
func (db *DB) GroupLoad(p ids.ProcessID) int {
	n := 0
	for _, s := range db.sessions {
		if s.InGroup(p) {
			n++
		}
	}
	return n
}

// SessionsOf returns the IDs of sessions where p is primary, sorted.
func (db *DB) SessionsOf(p ids.ProcessID) []ids.SessionID {
	var out []ids.SessionID
	for _, s := range db.sessions {
		if s.Primary == p {
			out = append(out, s.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Allocate deterministically selects a primary and up to `backups` backup
// servers for one session from the given members (the current content
// group view), following the paper's preference order: keep the former
// primary if alive; otherwise promote the first surviving backup;
// otherwise pick the least-loaded member. Backups are then filled with the
// least-loaded remaining members. Loads are evaluated against the current
// database, so identical databases yield identical choices everywhere.
//
// The session's allocation is updated in place and returned.
//
//hafw:deterministic
func (db *DB) Allocate(sid ids.SessionID, members []ids.ProcessID, backups int) (ids.ProcessID, []ids.ProcessID) {
	s := db.sessions[sid]
	if s == nil || len(members) == 0 {
		return ids.Nil, nil
	}
	alive := make(map[ids.ProcessID]bool, len(members))
	for _, m := range members {
		alive[m] = true
	}

	primary := ids.Nil
	if alive[s.Primary] {
		primary = s.Primary
	} else {
		for _, b := range s.Backups {
			if alive[b] {
				primary = b
				break
			}
		}
	}
	if primary == ids.Nil {
		primary = db.leastLoaded(members, map[ids.ProcessID]bool{})
	}

	exclude := map[ids.ProcessID]bool{primary: true}
	var bk []ids.ProcessID
	// Prefer surviving former backups to minimize context loss.
	for _, b := range s.Backups {
		if len(bk) >= backups {
			break
		}
		if alive[b] && !exclude[b] {
			bk = append(bk, b)
			exclude[b] = true
		}
	}
	for len(bk) < backups {
		next := db.leastLoaded(members, exclude)
		if next == ids.Nil {
			break
		}
		bk = append(bk, next)
		exclude[next] = true
	}

	s.Primary = primary
	s.Backups = bk
	return primary, append([]ids.ProcessID(nil), bk...)
}

// leastLoaded returns the member with the smallest group load (ties broken
// by smaller ProcessID), excluding the given set; Nil if none remain.
func (db *DB) leastLoaded(members []ids.ProcessID, exclude map[ids.ProcessID]bool) ids.ProcessID {
	best := ids.Nil
	bestLoad := 0
	for _, m := range members {
		if exclude[m] {
			continue
		}
		load := db.GroupLoad(m)
		if best == ids.Nil || load < bestLoad || (load == bestLoad && m < best) {
			best = m
			bestLoad = load
		}
	}
	return best
}

// Change describes one session's reallocation.
type Change struct {
	// SessionID identifies the session.
	SessionID ids.SessionID
	// OldPrimary and NewPrimary record the migration (equal if unchanged).
	OldPrimary, NewPrimary ids.ProcessID
	// OldBackups and NewBackups record backup set changes.
	OldBackups, NewBackups []ids.ProcessID
}

// PrimaryChanged reports whether the session migrated.
func (c Change) PrimaryChanged() bool { return c.OldPrimary != c.NewPrimary }

// Reallocate recomputes every session's allocation against a new member
// set (after a view change), in session-ID order so replicas make
// identical incremental load decisions. It returns the changes.
//
//hafw:deterministic
func (db *DB) Reallocate(members []ids.ProcessID, backups int) []Change {
	var changes []Change
	for _, s := range db.Sessions() {
		oldP, oldB := s.Primary, append([]ids.ProcessID(nil), s.Backups...)
		newP, newB := db.Allocate(s.ID, members, backups)
		changes = append(changes, Change{
			SessionID:  s.ID,
			OldPrimary: oldP, NewPrimary: newP,
			OldBackups: oldB, NewBackups: newB,
		})
	}
	return changes
}

// ReallocateBalanced recomputes every allocation against a new member set
// while evening out primary load: a session keeps its primary only while
// that server is below the fair-share target, otherwise it migrates to the
// least-loaded member (paper Section 3.4: after joins, "the allocation is
// done ... in such a way as to balance the load fairly"). Deterministic
// like Reallocate; used after join-time state exchanges, while crash-only
// view changes use the movement-minimizing Reallocate.
//
//hafw:deterministic
func (db *DB) ReallocateBalanced(members []ids.ProcessID, backups int) []Change {
	if len(members) == 0 {
		return db.Reallocate(members, backups)
	}
	alive := make(map[ids.ProcessID]bool, len(members))
	for _, m := range members {
		alive[m] = true
	}
	target := (len(db.sessions) + len(members) - 1) / len(members)
	if target == 0 {
		target = 1
	}
	counts := make(map[ids.ProcessID]int, len(members))

	var changes []Change
	for _, s := range db.Sessions() {
		oldP, oldB := s.Primary, append([]ids.ProcessID(nil), s.Backups...)

		newP := ids.Nil
		if alive[oldP] && counts[oldP] < target {
			newP = oldP
		} else {
			for _, b := range s.Backups {
				if alive[b] && counts[b] < target {
					newP = b
					break
				}
			}
		}
		if newP == ids.Nil {
			for _, m := range members {
				if newP == ids.Nil || counts[m] < counts[newP] {
					newP = m
				}
			}
		}
		counts[newP]++
		s.Primary = newP

		// Backups: keep surviving former backups, fill with the least
		// group-loaded members.
		exclude := map[ids.ProcessID]bool{newP: true}
		var bk []ids.ProcessID
		for _, b := range oldB {
			if len(bk) >= backups {
				break
			}
			if alive[b] && !exclude[b] {
				bk = append(bk, b)
				exclude[b] = true
			}
		}
		for len(bk) < backups {
			next := db.leastLoaded(members, exclude)
			if next == ids.Nil {
				break
			}
			bk = append(bk, next)
			exclude[next] = true
		}
		s.Backups = bk

		changes = append(changes, Change{
			SessionID:  s.ID,
			OldPrimary: oldP, NewPrimary: newP,
			OldBackups: oldB, NewBackups: append([]ids.ProcessID(nil), bk...),
		})
	}
	return changes
}

// Snapshot is a serializable copy of the database, used for join-time
// state exchange (paper Section 3.4: "servers first exchange information
// about clients"). It rides inside core.StateDelta's typed Snap field
// rather than being dispatched on its own.
//
//hafw:handledby -
type Snapshot struct {
	// Unit names the content unit.
	Unit ids.UnitName
	// NextSID is the session-ID counter.
	NextSID uint64
	// Sessions holds the session records. A snapshot produced by DeltaFor
	// is partial: it holds only the records the receiving members are
	// missing or hold stale.
	Sessions []Session
	// Tombstones lists removed session IDs, so merging a snapshot can
	// never resurrect a closed session.
	Tombstones []ids.SessionID
	// Meta holds context-elided records: sessions every member already
	// stores at the same stamp with an identical context, diverging only
	// in allocation metadata. Their Context field is nil on the wire; the
	// receiver substitutes its own copy before merging.
	Meta []Session
}

// WireName implements wire.Message so snapshots can travel inside
// framework state-exchange messages.
func (Snapshot) WireName() string { return "unitdb.Snapshot" }

func init() { wire.Register(Snapshot{}) }

// Snapshot returns a deep copy of the database state.
func (db *DB) Snapshot() Snapshot {
	snap := Snapshot{Unit: db.Unit, NextSID: db.nextSID, Tombstones: db.TombstoneIDs()}
	for _, s := range db.Sessions() {
		snap.Sessions = append(snap.Sessions, *s.clone())
	}
	return snap
}

// Restore replaces the database state with a snapshot.
func (db *DB) Restore(snap Snapshot) {
	db.Unit = snap.Unit
	db.nextSID = snap.NextSID
	db.sessions = make(map[ids.SessionID]*Session, len(snap.Sessions))
	for i := range snap.Sessions {
		s := snap.Sessions[i].clone()
		db.sessions[s.ID] = s
	}
	db.tombstones, db.nTombs = nil, 0
	db.addTombstones(snap.Tombstones)
}

// Merge folds another replica's snapshot into this database (partition
// heal / joiner state exchange). Unknown sessions are adopted; for
// sessions known to both, the record with the higher stamp wins wholesale
// (context and allocation); equal stamps are broken by a deterministic
// byte-wise comparison, so merging any set of snapshots in any order
// yields the same result at every replica — which is what lets members run
// the join-time state exchange and then reallocate deterministically with
// no further coordination. The session counter takes the maximum, so
// future IDs never collide.
//
//hafw:deterministic
func (db *DB) Merge(snap Snapshot) {
	if snap.NextSID > db.nextSID {
		db.nextSID = snap.NextSID
	}
	// Tombstones beat any record, in any merge order.
	db.addTombstones(snap.Tombstones)
	for i := range snap.Sessions {
		in := &snap.Sessions[i]
		if db.Tombstoned(in.ID) {
			continue
		}
		cur, ok := db.sessions[in.ID]
		if !ok {
			db.sessions[in.ID] = in.clone()
			continue
		}
		if preferSession(in, cur) {
			db.sessions[in.ID] = in.clone()
		}
	}
	for i := range snap.Meta {
		in := &snap.Meta[i]
		cur, ok := db.sessions[in.ID]
		if db.Tombstoned(in.ID) || !ok || cur.Stamp != in.Stamp {
			// Elision promised every member holds the record at this stamp;
			// anything else means our copy has moved on, and a contextless
			// record must never displace a real one.
			continue
		}
		cand := in.clone()
		cand.Context = append([]byte(nil), cur.Context...)
		if preferSession(cand, cur) {
			db.sessions[in.ID] = cand
		}
	}
}

// preferSession reports whether candidate should replace current in a
// merge. The relation is a strict total preference over distinct records,
// making merge order-independent.
func preferSession(candidate, current *Session) bool {
	if candidate.Stamp != current.Stamp {
		return candidate.Stamp > current.Stamp
	}
	if c := compareBytes(candidate.Context, current.Context); c != 0 {
		return c < 0
	}
	if candidate.Primary != current.Primary {
		return candidate.Primary < current.Primary
	}
	if c := compareProcs(candidate.Backups, current.Backups); c != 0 {
		return c < 0
	}
	// Client completes the total order: sessions created concurrently in
	// disjoint partitions can collide on every field above while belonging
	// to different clients.
	return candidate.Client < current.Client
}

func compareBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

func compareProcs(a, b []ids.ProcessID) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Checksum returns a digest of the full database state. Replicas that
// applied the same operations have equal checksums; the framework's tests
// and the trace invariant checker use this to verify replica consistency.
func (db *DB) Checksum() [32]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(db.Unit))
	put(db.nextSID)
	// Equal tombstone sets have equal ranges, since the ranges are
	// canonical.
	put(uint64(len(db.tombstones)))
	for _, r := range db.tombstones {
		put(r.Lo)
		put(r.Hi)
	}
	for _, s := range db.Sessions() {
		put(uint64(s.ID))
		put(uint64(s.Client))
		put(uint64(s.Primary))
		put(uint64(len(s.Backups)))
		for _, b := range s.Backups {
			put(uint64(b))
		}
		put(s.Stamp)
		put(uint64(len(s.Context)))
		h.Write(s.Context)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// String implements fmt.Stringer (diagnostic).
func (db *DB) String() string {
	return fmt.Sprintf("unitdb(%s, %d sessions)", db.Unit, len(db.sessions))
}
