package exp

import (
	"fmt"
	"time"

	"hafw/internal/cluster"
	"hafw/internal/loadgen"
)

// E15FailoverLatency measures client-observed latency while a primary
// crashes mid-load, against an identical fault-free baseline. The paper
// claims takeover is transparent to clients except for a brief response
// gap plus a possible duplicate window; under load that gap must surface
// as a bounded tail-latency excursion, not as errors.
func E15FailoverLatency(quick bool) (Table, error) {
	t := Table{
		ID:    "E15",
		Title: "latency under primary failover mid-load (live, B=1)",
		Claim: "takeover is client-transparent: \"a backup server takes over the session\" with only a response gap and duplicates (§3.3, §4)",
		Columns: []string{"phase", "throughput req/s", "p50", "p99", "p99.9", "max",
			"unanswered", "duplicates"},
	}
	clients, dur := 16, 5*time.Second
	if quick {
		clients, dur = 8, 2500*time.Millisecond
	}

	baseline, err := runFailoverCell(clients, dur, false)
	if err != nil {
		return t, fmt.Errorf("baseline: %w", err)
	}
	addE15Row(&t, "fault-free", baseline)

	crashed, err := runFailoverCell(clients, dur, true)
	if err != nil {
		return t, fmt.Errorf("crash run: %w", err)
	}
	addE15Row(&t, "crash at t/2", crashed)

	t.AddNote("3 servers, B=1, T=50ms; long sessions held across the crash; one server killed mid-run")
	t.AddNote("max-latency excursion %v (baseline) → %v (crash): the takeover gap",
		time.Duration(baseline.Latency.MaxNS).Round(time.Millisecond),
		time.Duration(crashed.Latency.MaxNS).Round(time.Millisecond))
	lostPct := 0.0
	if crashed.Requests.Sent > 0 {
		lostPct = 100 * float64(crashed.Errors.Unanswered) / float64(crashed.Requests.Sent)
	}
	t.AddNote("verdict: service continues through the crash; tail latency absorbs the takeover; "+
		"%.2f%% of requests fell into the in-flight loss window (the §4 lost-update risk)", lostPct)
	return t, nil
}

func addE15Row(t *Table, phase string, res *loadgen.Result) {
	t.AddRow(
		phase,
		fmt.Sprintf("%.0f", res.ThroughputRPS),
		time.Duration(res.Latency.P50NS).Round(100*time.Microsecond).String(),
		time.Duration(res.Latency.P99NS).Round(100*time.Microsecond).String(),
		time.Duration(res.Latency.P999NS).Round(100*time.Microsecond).String(),
		time.Duration(res.Latency.MaxNS).Round(100*time.Microsecond).String(),
		fmt.Sprintf("%d", res.Errors.Unanswered),
		fmt.Sprintf("%d", res.Requests.Duplicates),
	)
}

// heldSessions is a think-time closed loop whose sessions outlive the run,
// so a mid-run crash lands on sessions in flight.
var heldSessions = loadgen.Workload{
	Arrival:    loadgen.ArrivalClosed,
	Think:      time.Millisecond,
	SessionLen: 1 << 20,
	ReqTimeout: 3 * time.Second,
}

func runFailoverCell(clients int, dur time.Duration, crash bool) (*loadgen.Result, error) {
	target, err := cluster.New(cluster.Memnet, cluster.Config{
		Servers:     3,
		Backups:     1,
		Propagation: 50 * time.Millisecond,
		Units:       1,
	})
	if err != nil {
		return nil, err
	}
	defer target.Close()
	cfg := loadgen.Config{
		Target:   target,
		Clients:  clients,
		Duration: dur,
		Workload: heldSessions,
	}
	if crash {
		cfg.InjectAfter = dur / 2
		cfg.Inject = func() { target.Crash(target.Servers()[0]) }
	}
	return loadgen.Run(cfg)
}
