// Package hafw's root benchmark suite measures the substrate's
// micro-performance: codec, unit database, WAL, state transfer, the risk
// model and GCS multicast. Run:
//
//	go test -bench=. -benchmem
//
// The experiments themselves run through cmd/haexp (go run ./cmd/haexp
// -exp En; see DESIGN.md §5 and EXPERIMENTS.md).
package hafw

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hafw/internal/gcs"
	"hafw/internal/ids"
	"hafw/internal/riskmodel"
	"hafw/internal/store"
	"hafw/internal/transport/memnet"
	"hafw/internal/unitdb"
	"hafw/internal/wire"
)

// --- substrate micro-benchmarks ---

type benchMsg struct {
	N    int
	Data []byte
}

func (benchMsg) WireName() string { return "bench.msg" }

func init() {
	wire.Register(benchMsg{})
	wire.Register(benchDelta{})
}

// BenchmarkWireEncode measures the codec on a typical payload.
func BenchmarkWireEncode(b *testing.B) {
	env := wire.Envelope{
		From:    ids.ProcessEndpoint(1),
		To:      ids.ProcessEndpoint(2),
		Payload: benchMsg{N: 7, Data: make([]byte, 256)},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Encode(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireRoundTrip measures encode+decode.
func BenchmarkWireRoundTrip(b *testing.B) {
	env := wire.Envelope{
		From:    ids.ProcessEndpoint(1),
		To:      ids.ProcessEndpoint(2),
		Payload: benchMsg{N: 7, Data: make([]byte, 256)},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := wire.Encode(env)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnitDBAllocate measures the deterministic allocation function
// on a database with 1000 sessions.
func BenchmarkUnitDBAllocate(b *testing.B) {
	db := unitdb.New("u")
	members := []ids.ProcessID{1, 2, 3, 4, 5}
	for i := 0; i < 1000; i++ {
		s := db.CreateSession(ids.ClientID(i))
		db.Allocate(s.ID, members, 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := db.CreateSession(ids.ClientID(i))
		db.Allocate(s.ID, members, 2)
		db.Remove(s.ID)
	}
}

// BenchmarkUnitDBReallocate measures a full crash-only reallocation of
// 1000 sessions.
func BenchmarkUnitDBReallocate(b *testing.B) {
	db := unitdb.New("u")
	members := []ids.ProcessID{1, 2, 3, 4, 5}
	for i := 0; i < 1000; i++ {
		s := db.CreateSession(ids.ClientID(i))
		db.Allocate(s.ID, members, 1)
	}
	survivors := []ids.ProcessID{2, 3, 4, 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Reallocate(survivors, 1)
	}
}

// populateStore writes n sessions (3 records each: create, allocate, one
// context update with a 64-byte context) into a fresh store at dir.
func populateStore(b *testing.B, dir string, n int) {
	b.Helper()
	s, _, _, err := store.Open(store.Options{Dir: dir, Unit: "bench", Policy: store.FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	ctx := make([]byte, 64)
	for i := 1; i <= n; i++ {
		sid := ids.SessionID(i)
		for _, r := range []store.Record{
			{Op: store.OpCreate, SID: sid, Client: ids.ClientID(1000 + i)},
			{Op: store.OpAlloc, SID: sid, Primary: 1, Backups: []ids.ProcessID{2}},
			{Op: store.OpCtx, SID: sid, Ctx: ctx, Stamp: 1},
		} {
			if err := s.Append(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWALAppend measures append throughput of the durable log with a
// typical context-update record, per fsync policy.
func BenchmarkWALAppend(b *testing.B) {
	for _, pol := range []store.Policy{store.FsyncNever, store.FsyncInterval, store.FsyncAlways} {
		b.Run(pol.String(), func(b *testing.B) {
			s, _, _, err := store.Open(store.Options{
				Dir: b.TempDir(), Unit: "bench", Policy: pol, Interval: 10 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			ctx := make([]byte, 256)
			b.SetBytes(int64(len(ctx)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := store.Record{
					Op: store.OpCtx, SID: ids.SessionID(i%512 + 1),
					Ctx: ctx, Stamp: uint64(i),
				}
				if err := s.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreRecover measures full WAL replay time as the database
// grows — the restart-availability cost a durable server pays before it
// can rejoin its groups.
func BenchmarkStoreRecover(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			populateStore(b, dir, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db, _, err := store.Recover(dir, "bench")
				if err != nil {
					b.Fatal(err)
				}
				if db.Len() != n {
					b.Fatalf("recovered %d sessions, want %d", db.Len(), n)
				}
			}
		})
	}
}

// BenchmarkDeltaVsFullTransfer measures the encoded bytes a joiner is
// shipped under the delta exchange: a warm joiner (holding a copy that
// missed the last round of context updates on 10% of sessions — the shape
// of a brief restart) versus a cold one (empty database, full copy). The
// ratio is the payoff of the durable store.
func BenchmarkDeltaVsFullTransfer(b *testing.B) {
	const n, staleFrac = 1000, 10
	members := []ids.ProcessID{1, 2}
	build := func(staleTail bool) *unitdb.DB {
		db := unitdb.New("u")
		for i := 0; i < n; i++ {
			s := db.CreateSession(ids.ClientID(i))
			db.Allocate(s.ID, members, 1)
			stamp := uint64(2)
			if staleTail && i >= n-n/staleFrac {
				stamp = 1
			}
			db.UpdateContext(s.ID, make([]byte, 64), stamp)
		}
		return db
	}
	fresh := build(false)    // the up-to-date member
	stale := build(true)     // warm joiner: missed updates on the tail 10%
	empty := unitdb.New("u") // cold joiner
	transfer := func(joiner *unitdb.DB) int {
		offers := map[ids.ProcessID]unitdb.Offer{
			1: fresh.Offer(),
			2: joiner.Offer(),
		}
		snap := fresh.DeltaFor(1, offers)
		data, err := wire.Encode(wire.Envelope{
			From: ids.ProcessEndpoint(1), To: ids.ProcessEndpoint(2),
			Payload: benchDelta{Snap: snap},
		})
		if err != nil {
			b.Fatal(err)
		}
		return len(data)
	}
	var warmBytes, coldBytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warmBytes = transfer(stale)
		coldBytes = transfer(empty)
	}
	b.StopTimer()
	b.ReportMetric(float64(warmBytes), "warm_bytes")
	b.ReportMetric(float64(coldBytes), "cold_bytes")
	if coldBytes <= warmBytes {
		b.Fatalf("delta exchange did not shrink transfer: warm=%d cold=%d", warmBytes, coldBytes)
	}
}

type benchDelta struct {
	Snap unitdb.Snapshot
}

func (benchDelta) WireName() string { return "bench.delta" }

// BenchmarkRiskMonteCarlo measures lost-update trials per second.
func BenchmarkRiskMonteCarlo(b *testing.B) {
	p := riskmodel.Params{MTTF: 120, T: 0.5, B: 1}
	b.ResetTimer()
	riskmodel.SimulateLostUpdates(p, 42, b.N)
}

// BenchmarkGCSMulticast measures end-to-end ordered multicast delivery
// through a live 3-process GCS on the in-memory network: one op is one
// message multicast by the coordinator and delivered at every member.
func BenchmarkGCSMulticast(b *testing.B) {
	net := memnet.New(memnet.Config{})
	defer net.Close()
	pids := []ids.ProcessID{1, 2, 3}

	var mu sync.Mutex
	delivered := make(map[ids.ProcessID]int)
	var procs []*gcs.Process
	for _, pid := range pids {
		pid := pid
		ep, err := net.Attach(ids.ProcessEndpoint(pid))
		if err != nil {
			b.Fatal(err)
		}
		p, err := gcs.NewProcess(gcs.Config{
			Self: pid, Transport: ep, World: pids,
			OnEvent: func(e gcs.Event) {
				if _, ok := e.(gcs.MessageEvent); ok {
					mu.Lock()
					delivered[pid]++
					mu.Unlock()
				}
			},
			// Patient failure detection: the benchmark injects no faults,
			// and a tight send loop on a small machine can starve
			// aggressive heartbeats into false suspicions — which would
			// change views mid-measurement and (correctly, per GCS
			// semantics) exempt the excluded member from that view's
			// messages.
			FDInterval: 50 * time.Millisecond, FDTimeout: 3 * time.Second,
			RoundTimeout: 250 * time.Millisecond, AckInterval: 15 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		p.Start()
		defer p.Stop()
		procs = append(procs, p)
	}
	const g ids.GroupName = "bench"
	for _, p := range procs {
		if err := p.Join(g); err != nil {
			b.Fatal(err)
		}
	}
	// Wait for formation.
	deadline := time.Now().Add(10 * time.Second)
	for len(procs[0].GroupMembers(g)) != 3 {
		if time.Now().After(deadline) {
			b.Fatal("group never formed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	payload := benchMsg{Data: make([]byte, 128)}
	// Flow control: cap the outstanding window so large b.N measures
	// sustainable ordered-multicast throughput instead of overflowing the
	// delivery queues with one burst.
	const window = 1024
	waitDelivered := func(target int) {
		deadline := time.Now().Add(30 * time.Second)
		for {
			mu.Lock()
			done := delivered[1] >= target && delivered[2] >= target && delivered[3] >= target
			mu.Unlock()
			if done {
				return
			}
			if time.Now().After(deadline) {
				b.Fatal("deliveries incomplete")
			}
			time.Sleep(time.Millisecond)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := procs[0].Multicast(g, payload); err != nil {
			b.Fatal(err)
		}
		if i%window == window-1 {
			waitDelivered(i + 1 - window/2)
		}
	}
	// Wait for full delivery everywhere.
	waitDelivered(b.N)
	b.StopTimer()
}
