package loadgen_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hafw/internal/cluster"
	"hafw/internal/ids"
	"hafw/internal/loadgen"
	"hafw/internal/media"
)

// newTestTarget brings up a small memnet cluster, torn down with the test.
func newTestTarget(t *testing.T, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	target, err := cluster.New(cluster.Memnet, cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(target.Close)
	return target
}

func TestClosedLoopRun(t *testing.T) {
	target := newTestTarget(t, cluster.Config{Servers: 3, Backups: 1, Units: 2})
	res, err := loadgen.Run(loadgen.Config{
		Target:   target,
		Clients:  8,
		Duration: 1500 * time.Millisecond,
		Workload: loadgen.Workload{
			Arrival:    loadgen.ArrivalClosed,
			Think:      time.Millisecond,
			SessionLen: 40,
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// A loaded CI machine can stretch the aggressive FD timers into a
	// spurious view change mid-run; the takeover keeps the service up, so
	// tolerate the same ≤1% error fraction the fault-injection test allows.
	if res.Errors.Total*100 > res.Requests.Sent {
		t.Errorf("errors = %+v of %d sent (>1%%)\n%s", res.Errors, res.Requests.Sent, res.Summary())
	}
	if res.Requests.OK == 0 || res.Latency.Count == 0 {
		t.Fatalf("no answered requests: %+v", res.Requests)
	}
	if res.Requests.OK != res.Latency.Count {
		t.Errorf("latency samples %d != ok %d", res.Latency.Count, res.Requests.OK)
	}
	if res.ThroughputRPS <= 0 {
		t.Errorf("throughput = %v", res.ThroughputRPS)
	}
	if res.Latency.P50NS <= 0 || res.Latency.P99NS < res.Latency.P50NS {
		t.Errorf("implausible quantiles: p50=%d p99=%d", res.Latency.P50NS, res.Latency.P99NS)
	}
	if res.ClientTotals.Responses < res.Requests.OK {
		t.Errorf("client responses %d < ok %d", res.ClientTotals.Responses, res.Requests.OK)
	}
}

func TestOpenLoopRun(t *testing.T) {
	target := newTestTarget(t, cluster.Config{Servers: 3, Backups: 1, Units: 1})
	res, err := loadgen.Run(loadgen.Config{
		Target:   target,
		Clients:  4,
		Duration: 1200 * time.Millisecond,
		Workload: loadgen.Workload{
			Arrival:       loadgen.ArrivalOpen,
			RatePerClient: 100,
			SessionLen:    50,
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Same ≤1% tolerance as the closed loop: contention-induced view
	// changes are takeovers working, not generator failures.
	if res.Errors.Total*100 > res.Requests.Sent {
		t.Errorf("errors = %+v of %d sent (>1%%)\n%s", res.Errors, res.Requests.Sent, res.Summary())
	}
	if res.Requests.OK == 0 {
		t.Fatal("no answered requests")
	}
	// An unsaturated open loop should deliver roughly the offered rate;
	// accept a broad band to stay robust on loaded CI machines.
	offered := 4 * 100.0
	if res.ThroughputRPS < offered/4 {
		t.Errorf("throughput %.0f req/s far below offered %.0f", res.ThroughputRPS, offered)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	target := newTestTarget(t, cluster.Config{Servers: 2, Units: 1})
	res, err := loadgen.Run(loadgen.Config{
		Target:   target,
		Clients:  2,
		Duration: 400 * time.Millisecond,
		Workload: loadgen.Workload{SessionLen: 10, Think: time.Millisecond},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_loadgen.json")
	if err := res.WriteJSON(path); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back loadgen.Result
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("BENCH_loadgen.json does not parse: %v", err)
	}
	if back.Schema != loadgen.Schema {
		t.Errorf("schema = %q, want %q", back.Schema, loadgen.Schema)
	}
	if back.Target.Mode != "memnet" || back.Target.Replication != 2 {
		t.Errorf("target = %+v", back.Target)
	}
	if back.Requests.OK != res.Requests.OK || back.Latency.P99NS != res.Latency.P99NS {
		t.Errorf("round-trip mismatch")
	}
	if len(back.Latency.Buckets) == 0 {
		t.Errorf("latency export carries no buckets")
	}
}

func TestFaultInjectionMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("failover run in -short")
	}
	target := newTestTarget(t, cluster.Config{Servers: 3, Backups: 1, Units: 1})
	res, err := loadgen.Run(loadgen.Config{
		Target:   target,
		Clients:  4,
		Duration: 2500 * time.Millisecond,
		Workload: loadgen.Workload{
			Arrival:    loadgen.ArrivalClosed,
			Think:      time.Millisecond,
			SessionLen: 1000, // keep sessions open across the crash
			ReqTimeout: 3 * time.Second,
		},
		InjectAfter: 1200 * time.Millisecond,
		Inject: func() {
			target.Crash(target.Servers()[0])
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Takeover must keep the service available: the vast majority of
	// requests are answered. A handful in flight exactly inside the crash
	// window may reach only the dead primary (the paper's lost-update
	// risk, measured by E15) — that is the signal, not a failure.
	if res.Requests.OK == 0 {
		t.Fatal("no requests answered")
	}
	if lost, sent := res.Errors.Unanswered, res.Requests.Sent; lost*100 > sent {
		t.Errorf("unanswered = %d of %d (>1%%) after single-crash takeover with B=1\n%s",
			lost, sent, res.Summary())
	}
	if res.Skew.MaxOverMean == 0 || len(res.Skew.Servers) == 0 {
		t.Errorf("no skew recorded")
	}
}

func TestSessionSkew(t *testing.T) {
	target := newTestTarget(t, cluster.Config{Servers: 3, Units: 2})
	client, err := target.NewClient(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 6; i++ {
		unit := target.Units()[i%2]
		if _, err := client.StartSession(unit, nil); err != nil {
			t.Fatalf("StartSession %d: %v", i, err)
		}
	}
	time.Sleep(200 * time.Millisecond)
	skew := target.Primaries()
	total := 0
	for pid, n := range skew {
		if n < 0 || pid == ids.Nil {
			t.Errorf("bad skew entry %v=%d", pid, n)
		}
		total += n
	}
	if total != 6 {
		t.Errorf("skew counts %d sessions, want 6: %v", total, skew)
	}
}

// streamTestSpec is a short synthetic title: 4s at 64 kB/s in 4 KiB
// chunks — enough structure for windows and failover without slow tests.
func streamTestSpec() media.Spec {
	return media.Spec{
		Duration:        4 * time.Second,
		SegmentDuration: 500 * time.Millisecond,
		BitrateBps:      64_000,
		ChunkBytes:      4096,
	}
}

func TestStreamWorkloadMemnet(t *testing.T) {
	if testing.Short() {
		t.Skip("stream run in -short")
	}
	spec := streamTestSpec()
	target := newTestTarget(t, cluster.Config{
		Servers: 3, Backups: 1, Units: 2,
		Service: loadgen.StreamService(spec),
	})
	res, err := loadgen.RunStream(loadgen.StreamConfig{
		Target:      target,
		Players:     3,
		Playbacks:   1,
		Window:      8,
		Speed:       20,
		PullTimeout: 100 * time.Millisecond,
		MaxWall:     30 * time.Second,
		ZipfS:       1.5,
		// Kill one server mid-stream: sessions whose primary it hosted
		// fail over; all playbacks must still reach EOF intact.
		InjectAfter: 80 * time.Millisecond,
		Inject:      func() { target.Crash(target.Servers()[0]) },
	})
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	want := res.Totals.Playbacks
	if want != 3 {
		t.Fatalf("ran %d playbacks, want 3 (errors: %+v)", want, res.Errors)
	}
	if res.Totals.Completed != want {
		t.Fatalf("%d/%d playbacks completed\n%s", res.Totals.Completed, want, res.Summary())
	}
	spec.Title = "x"
	perTitle := media.BuildManifest(spec)
	if res.Totals.Chunks != uint64(want*perTitle.TotalChunks()) {
		t.Errorf("consumed %d chunks, want %d (gap or loss)\n%s",
			res.Totals.Chunks, want*perTitle.TotalChunks(), res.Summary())
	}
	if res.Totals.Bytes != uint64(want)*uint64(perTitle.TotalBytes()) {
		t.Errorf("consumed %d bytes, want %d", res.Totals.Bytes, uint64(want)*uint64(perTitle.TotalBytes()))
	}
	if res.Totals.CRCErrors != 0 {
		t.Errorf("%d CRC errors", res.Totals.CRCErrors)
	}
	if res.Totals.Pulls == 0 || res.Errors.Total != 0 {
		t.Errorf("pulls=%d errors=%+v", res.Totals.Pulls, res.Errors)
	}
}

func TestStreamResultJSONRoundTrip(t *testing.T) {
	spec := streamTestSpec()
	target := newTestTarget(t, cluster.Config{
		Servers: 2, Units: 1, Service: loadgen.StreamService(spec),
	})
	res, err := loadgen.RunStream(loadgen.StreamConfig{
		Target: target, Players: 1, Speed: 50,
		PullTimeout: 100 * time.Millisecond, MaxWall: 20 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_stream.json")
	if err := res.WriteJSON(path); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back loadgen.StreamResult
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("BENCH_stream.json does not parse: %v", err)
	}
	if back.Schema != loadgen.StreamSchema {
		t.Errorf("schema = %q, want %q", back.Schema, loadgen.StreamSchema)
	}
	if back.Totals.Completed != res.Totals.Completed || back.Stall.Count != res.Stall.Count {
		t.Errorf("round-trip mismatch: %+v vs %+v", back.Totals, res.Totals)
	}
}
