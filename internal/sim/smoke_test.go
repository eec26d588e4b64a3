package sim

import (
	"os"
	"runtime/debug"
	"testing"
	"time"
)

// TestSimSmoke50Node is the CI smoke sweep: a 50-node cluster riding out
// five virtual minutes of seeded churn, a partition, and clock skew — a
// scenario the configuration (B=1, WAL, at most one server down at a
// time) must survive with zero invariant violations. Virtual time makes
// the five minutes cost well under a real minute even with the race
// detector on. Gated behind HAFW_SIM_SMOKE so routine test runs stay
// fast.
func TestSimSmoke50Node(t *testing.T) {
	if os.Getenv("HAFW_SIM_SMOKE") == "" {
		t.Skip("set HAFW_SIM_SMOKE=1 to run the 50-node smoke sweep")
	}
	// The sweep allocates heavily (every message is codec-cloned); a
	// relaxed GC target trades peak memory for wall clock.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	sched := &Schedule{Entries: []Entry{
		{Kind: KindChurn, FromMS: 30_000, MTTFMS: 600_000, MTTRMS: 60_000, MaxDown: 1},
		{Kind: KindSkew, AtMS: 45_000, Node: 7, OffsetMS: 20_000},
		{Kind: KindPartition, AtMS: 90_000, Sides: [][]int{
			{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
			{11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
				26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40,
				41, 42, 43, 44, 45, 46, 47, 48, 49, 50},
		}},
		{Kind: KindHeal, AtMS: 130_000},
	}}
	start := time.Now()
	rep, err := Run(Config{
		Seed:    1309,
		Nodes:   50,
		Clients: 5,
		Backups: 1,
		Virtual: 5 * time.Minute,
		WAL:     true,
		DataDir: t.TempDir(),
		// Large-cluster pacing. Above ten servers the harness's profile
		// also runs slower detection (15s heartbeats, 45s suspicion) the
		// way production systems do, because heartbeat traffic is
		// quadratic in the node count, and keeps acks short (3s):
		// stability acks bound how much unstable-message state
		// view-change commits have to carry.
		Propagation: 15 * time.Second,
		UpdateEvery: 4 * time.Second,
		SampleEvery: 2 * time.Second,
	}, sched)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("invariant violations in the 50-node smoke sweep:\n%s", FormatViolations(rep.Violations))
	}
	if rep.Acked == 0 {
		t.Fatal("workload made no progress: zero acked updates")
	}
	t.Logf("50 nodes, 5 virtual minutes in %v real: events=%d samples=%d acked=%d dups=%d lostAnom=%d",
		time.Since(start).Round(time.Millisecond), rep.Events, rep.Samples, rep.Acked,
		rep.Duplicates, rep.LostAnomalous)
}
