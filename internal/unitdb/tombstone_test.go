package unitdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hafw/internal/ids"
)

// churn creates n sessions and ends them in random order with at most
// live open at once, leaving the last live open. Every session gets a
// context.
func churn(rng *rand.Rand, db *DB, n, live int, check func()) {
	open := make([]ids.SessionID, 0, live)
	for created := 0; created < n; {
		if len(open) < live {
			s := db.CreateSession(ids.ClientID(created % 97))
			db.UpdateContext(s.ID, []byte(fmt.Sprintf("ctx-%d", s.ID)), 1)
			open = append(open, s.ID)
			created++
			continue
		}
		k := rng.Intn(len(open))
		db.Remove(open[k])
		open[k] = open[len(open)-1]
		open = open[:len(open)-1]
		if check != nil {
			check()
		}
	}
}

// TestTombstonesCostRangesNotSessions ends 200 000 sessions in random
// order with at most 64 live: the tombstones count every one of them, but
// never take more ranges than there are gaps between live sessions.
func TestTombstonesCostRangesNotSessions(t *testing.T) {
	const total, live = 200000, 64
	db := New("u")
	worst := 0
	churn(rand.New(rand.NewSource(1)), db, total+live, live, func() {
		if r := db.TombstoneRanges(); r > db.Len()+1 {
			t.Fatalf("%d tombstone ranges with %d live sessions", r, db.Len())
		} else if r > worst {
			worst = r
		}
	})
	for _, s := range db.Sessions() {
		db.Remove(s.ID)
	}
	if got := db.Tombstones(); got != total+live {
		t.Fatalf("Tombstones() = %d, want %d", got, total+live)
	}
	if r := db.TombstoneRanges(); r != 1 {
		t.Fatalf("with every session ended the tombstones are %d ranges, want 1", r)
	}
	t.Logf("at most %d tombstone ranges over %d sessions", worst, total+live)
}

// TestSnapshotRestoreAndMergeKeepTombstones checks that the tombstones
// survive the list form they travel in: a restored snapshot, and a stale
// replica that merges the live database's snapshot, both read the same
// checksum and sessions as the live database.
func TestSnapshotRestoreAndMergeKeepTombstones(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	live := New("u")
	churn(rng, live, 3000, 40, nil)
	stale := New("u")
	stale.Restore(live.Snapshot())
	churn(rng, live, 3000, 40, nil)
	for _, s := range live.Sessions()[:10] {
		live.UpdateContext(s.ID, []byte("moved on"), s.Stamp+1)
	}

	restored := New("other")
	restored.Restore(live.Snapshot())
	stale.Merge(live.Snapshot())
	for name, db := range map[string]*DB{"restored": restored, "merged into a stale replica": stale} {
		if db.Checksum() != live.Checksum() {
			t.Errorf("%s: checksum differs from the live database", name)
		}
		if !reflect.DeepEqual(db.Sessions(), live.Sessions()) {
			t.Errorf("%s: sessions differ from the live database", name)
		}
		if db.Tombstones() != live.Tombstones() || db.TombstoneRanges() != live.TombstoneRanges() {
			t.Errorf("%s: %d tombstones in %d ranges, want %d in %d", name,
				db.Tombstones(), db.TombstoneRanges(), live.Tombstones(), live.TombstoneRanges())
		}
	}
}

// mapDeltaTombstones is DeltaFor's tombstone selection as it was with the
// tombstones in a map: for every tombstone, the least member holding it
// sends it if some member lacks it.
func mapDeltaTombstones(db *DB, self ids.ProcessID, offers map[ids.ProcessID]Offer) []ids.SessionID {
	members := make([]ids.ProcessID, 0, len(offers))
	tombs := make(map[ids.ProcessID]map[ids.SessionID]bool, len(offers))
	for p, o := range offers {
		members = append(members, p)
		tombs[p] = make(map[ids.SessionID]bool, len(o.Tombstones))
		for _, t := range o.Tombstones {
			tombs[p][t] = true
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	var out []ids.SessionID
	for _, t := range db.TombstoneIDs() {
		designated, needy := ids.Nil, false
		for _, p := range members {
			if tombs[p][t] {
				if designated == ids.Nil {
					designated = p
				}
			} else {
				needy = true
			}
		}
		if needy && designated == self {
			out = append(out, t)
		}
	}
	return out
}

// TestDeltaTombstonesMatchMapSelection runs the exchange among a warm
// member, a stale member that ended a session the others still hold, and
// a third member that is cold in even rounds and a twin of the warm one
// in odd rounds (so most tombstones are held by everyone), and checks
// that every member ships the tombstones the map-based selection ships
// for the same offers.
func TestDeltaTombstonesMatchMapSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 20; round++ {
		warm := New("u")
		churn(rng, warm, 500, 16, nil)
		stale := New("u")
		stale.Restore(warm.Snapshot())
		churn(rng, warm, 200+rng.Intn(300), 16, nil)
		ended := stale.Sessions()[rng.Intn(stale.Len())].ID
		stale.Remove(ended)
		if warm.Tombstoned(ended) {
			t.Fatalf("round %d: session %v is closed at the warm member too", round, ended)
		}
		third := New("u")
		if round%2 == 1 {
			third.Restore(warm.Snapshot())
		}
		// Vary which member plays which part.
		order := rng.Perm(3)
		dbs := map[ids.ProcessID]*DB{
			ids.ProcessID(order[0] + 1): warm,
			ids.ProcessID(order[1] + 1): stale,
			ids.ProcessID(order[2] + 1): third,
		}
		offers := make(map[ids.ProcessID]Offer, len(dbs))
		for p, db := range dbs {
			offers[p] = db.Offer()
		}
		shipped := make(map[ids.SessionID]int)
		for p, db := range dbs {
			got := db.DeltaFor(p, offers).Tombstones
			if want := mapDeltaTombstones(db, p, offers); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: p%d ships tombstones %v, the map selection %v", round, p, got, want)
			}
			for _, sid := range got {
				shipped[sid]++
			}
		}
		if shipped[ended] != 1 {
			t.Fatalf("round %d: the stale member's tombstone %v shipped %d times, want once", round, ended, shipped[ended])
		}
		want := fullMergeChecksum(dbs)
		exchange(t, dbs)
		assertConverged(t, dbs, want)
	}
}

// BenchmarkCreateEndRandomOrder creates a session and ends a random one
// of 5 000 live sessions per operation.
func BenchmarkCreateEndRandomOrder(b *testing.B) {
	const live = 5000
	rng := rand.New(rand.NewSource(1))
	db := New("u")
	open := make([]ids.SessionID, 0, live)
	for len(open) < live {
		open = append(open, db.CreateSession(1).ID)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := rng.Intn(live)
		db.Remove(open[k])
		open[k] = db.CreateSession(1).ID
	}
}
