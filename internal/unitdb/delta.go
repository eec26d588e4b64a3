package unitdb

import (
	"encoding/binary"
	"hash/fnv"
	"sort"

	"hafw/internal/ids"
	"hafw/internal/ranges"
)

// This file implements delta state transfer for join-time state exchange.
// Instead of every content-group member multicasting its full database on
// every view change with joiners, members first exchange per-session
// version stamps (Offer) and then multicast only the records some member
// is missing or holds stale (DeltaFor). A cold member (empty database)
// naturally degenerates to receiving one full snapshot, sent by a single
// deterministically designated holder rather than by everyone.
//
// Correctness requirement: after every member merges every member's delta,
// all databases must be identical — the same post-state the full-snapshot
// exchange would have produced. DeltaFor guarantees this because a record
// is withheld only when the offers prove every member already holds a
// record that ties or beats it under the merge preference.

// StampEntry is one session's version stamp in an Offer: enough for peers
// to decide staleness without shipping the record.
type StampEntry struct {
	// ID identifies the session.
	ID ids.SessionID
	// Stamp is the record's context generation.
	Stamp uint64
	// Hash fingerprints the full record (client, allocation, stamp,
	// context), distinguishing divergent records with equal stamps (which
	// arise when partitioned primaries advanced the same session
	// independently).
	Hash uint64
	// CtxHash fingerprints the context alone. When records diverge only in
	// allocation metadata — the common case for a warm rejoiner whose WAL
	// predates a crash-driven reallocation — equal context hashes let the
	// sender elide the context bytes from its delta.
	CtxHash uint64
}

// Offer is the first phase of the delta exchange: one member's complete
// version-stamp vector.
type Offer struct {
	// NextSID is the sender's session-ID counter.
	NextSID uint64
	// Stamps lists every live session, sorted by ID.
	Stamps []StampEntry
	// Tombstones lists every removed session the sender knows of, sorted.
	Tombstones []ids.SessionID
}

// recordHash fingerprints a session record with FNV-1a; equal records hash
// equal at every replica (pure arithmetic over the record's fields).
func recordHash(s *Session) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(s.Client))
	put(uint64(s.Primary))
	put(uint64(len(s.Backups)))
	for _, b := range s.Backups {
		put(uint64(b))
	}
	put(s.Stamp)
	put(uint64(len(s.Context)))
	h.Write(s.Context)
	return h.Sum64()
}

// ctxHash fingerprints a session context alone with FNV-1a.
func ctxHash(ctx []byte) uint64 {
	h := fnv.New64a()
	h.Write(ctx)
	return h.Sum64()
}

// Offer exports this database's version stamps for the exchange.
func (db *DB) Offer() Offer {
	o := Offer{NextSID: db.nextSID, Tombstones: db.TombstoneIDs()}
	for _, s := range db.Sessions() {
		o.Stamps = append(o.Stamps, StampEntry{
			ID: s.ID, Stamp: s.Stamp, Hash: recordHash(s), CtxHash: ctxHash(s.Context),
		})
	}
	return o
}

// DeltaFor computes the partial snapshot this member should multicast in
// the second phase of the exchange, given every member's offer (the map
// must include self's own offer). All members run this with the same
// offers, so the union of the returned deltas is the same at every member
// and merging them converges everywhere.
//
// Selection per live session:
//   - members whose stamp is below the maximum never send (their record
//     loses the merge);
//   - if all maximum-stamp holders agree on the record hash, exactly one
//     of them (the least process ID) sends, and only if some member is
//     missing the record or holds a staler one;
//   - if maximum-stamp holders disagree (divergent records with equal
//     stamps), the least holder of each distinct candidate sends it —
//     one copy per candidate, not per holder — so every member can run
//     the deterministic byte-wise tie-break over all candidates.
//
// Tombstones spread the same way: the least member holding a tombstone
// sends it whenever some member lacks it.
//
//hafw:deterministic
func (db *DB) DeltaFor(self ids.ProcessID, offers map[ids.ProcessID]Offer) Snapshot {
	out := Snapshot{Unit: db.Unit, NextSID: db.nextSID}

	members := make([]ids.ProcessID, 0, len(offers))
	for p := range offers {
		members = append(members, p)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })

	type peerIndex struct {
		stamps map[ids.SessionID]StampEntry
		tombs  ranges.Set
	}
	idx := make(map[ids.ProcessID]peerIndex, len(offers))
	for p, o := range offers {
		pi := peerIndex{stamps: make(map[ids.SessionID]StampEntry, len(o.Stamps))}
		for _, e := range o.Stamps {
			pi.stamps[e.ID] = e
		}
		ranges.AddSorted(&pi.tombs, o.Tombstones)
		idx[p] = pi
	}

	// Tombstones: the least member holding one sends it when some member
	// lacks it. So this member sends those it holds that no lesser member
	// holds and not every member holds.
	var lesser, every, anyone ranges.Set
	for i, p := range members {
		tombs := idx[p].tombs
		if p < self {
			lesser = ranges.Union(lesser, tombs)
		}
		if i == 0 {
			every = tombs
		} else {
			every = ranges.Intersect(every, tombs)
		}
		anyone = ranges.Union(anyone, tombs)
	}
	mine := ranges.Intersect(db.tombstones, idx[self].tombs)
	if send := ranges.Subtract(ranges.Subtract(mine, lesser), every); send.Len() > 0 {
		out.Tombstones = ranges.Values[ids.SessionID](send)
	}

	for _, s := range db.Sessions() {
		// A tombstone anywhere means the session is dead; its holder will
		// spread the tombstone, so never ship the record.
		if anyone.Has(uint64(s.ID)) {
			continue
		}

		maxStamp := s.Stamp
		for _, p := range members {
			if e, ok := idx[p].stamps[s.ID]; ok && e.Stamp > maxStamp {
				maxStamp = e.Stamp
			}
		}
		if s.Stamp < maxStamp {
			continue // our record loses; the winner's holder sends
		}

		// designated is the least max-stamp holder of OUR candidate (offers
		// include self, so it is never Nil when we are at max stamp).
		myHash, myCtx := recordHash(s), ctxHash(s.Context)
		designated, divergent, ctxDivergent, needy := ids.Nil, false, false, false
		for _, p := range members {
			e, ok := idx[p].stamps[s.ID]
			switch {
			case !ok || e.Stamp < maxStamp:
				needy = true
			case e.Hash != myHash:
				divergent = true
				if e.CtxHash != myCtx {
					ctxDivergent = true
				}
			case designated == ids.Nil:
				designated = p
			}
		}
		if designated != self || !(needy || divergent) {
			continue
		}
		if !needy && !ctxDivergent {
			// Every member holds this session at the max stamp with an
			// identical context: the divergence is metadata only
			// (allocation), so ship the record without its context bytes.
			// Receivers substitute their own (identical) context before
			// merging, and the tie-break still converges because it orders
			// equal-context records by allocation.
			meta := *s.clone()
			meta.Context = nil
			out.Meta = append(out.Meta, meta)
			continue
		}
		out.Sessions = append(out.Sessions, *s.clone())
	}
	return out
}
