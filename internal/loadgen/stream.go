package loadgen

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"encoding/json"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/media"
	"hafw/internal/metrics"
	"hafw/internal/services/vod"
)

// StreamSchema identifies the BENCH_stream.json format version.
const StreamSchema = "hafw/stream/v1"

// StreamService returns a cluster.Config.Service factory that serves the
// given media spec on every unit, titled by the unit name. Synthesis is
// deterministic from the title, so every server generates byte-identical
// content for the same unit — the replication invariant streaming needs.
func StreamService(spec media.Spec) func(ids.UnitName) core.Service {
	return func(u ids.UnitName) core.Service {
		s := spec
		s.Title = string(u)
		return vod.NewStream(media.Synthesize(s), nil)
	}
}

// StreamConfig parameterizes one streaming load run: a fleet of players
// pulling chunked titles from a deployment running the vod stream service.
type StreamConfig struct {
	// Target is the deployment to drive (required). Its units must be
	// served by the vod stream service (see StreamService).
	Target Target
	// Players is the concurrent player count. Zero means 4.
	Players int
	// Playbacks is how many titles each player streams to completion in
	// sequence. Zero means 1.
	Playbacks int
	// ZipfS is the Zipf skew for title popularity: s > 1 concentrates
	// players on hot titles; ≤ 1 selects uniformly.
	ZipfS float64
	// Window is each player's pull window in chunks. Zero means 16.
	Window int
	// Speed is the playback-speed multiplier (see vod.StreamPlayerConfig).
	// Zero means 1: real-time playback at the manifest bitrate.
	Speed float64
	// PullTimeout is the player's no-progress re-pull interval — the
	// failover recovery knob. Zero means 500ms.
	PullTimeout time.Duration
	// MaxWall bounds one playback's wall time. Zero means 60s.
	MaxWall time.Duration
	// Seed makes title selection reproducible. Zero means 1.
	Seed int64
	// InjectAfter, with Inject, schedules one fault injection (e.g. a
	// primary kill) this long into the run. Zero disables.
	InjectAfter time.Duration
	// Inject is the fault to inject.
	Inject func()
}

// StreamTotals aggregates the fleet's playback outcomes.
type StreamTotals struct {
	// Playbacks is how many playbacks ran; Completed how many reached
	// end-of-title within their wall budget.
	Playbacks int `json:"playbacks"`
	Completed int `json:"completed"`
	// Chunks and Bytes count consumed (played) media across the fleet.
	Chunks uint64 `json:"chunks"`
	Bytes  uint64 `json:"bytes"`
	// Rebuffers counts stall events; StallS sums stalled wall time.
	Rebuffers uint64  `json:"rebuffers"`
	StallS    float64 `json:"stall_s"`
	// Duplicates counts redundantly delivered chunks (the takeover
	// uncertainty window); CRCErrors counts integrity failures.
	Duplicates uint64 `json:"duplicates"`
	CRCErrors  uint64 `json:"crc_errors"`
	// Pulls counts GetChunk requests; Repulls the timeout-recovery subset.
	// PullErrors counts transient pull-send failures that were retried.
	Pulls      uint64 `json:"pulls"`
	Repulls    uint64 `json:"repulls"`
	PullErrors uint64 `json:"pull_errors,omitempty"`
}

// StreamErrors breaks a stream run's hard errors down.
type StreamErrors struct {
	// Client counts failed driver-client attachments.
	Client uint64 `json:"client"`
	// Start counts failed StartSession calls.
	Start uint64 `json:"start"`
	// Run counts playbacks that failed outright (pull send errors,
	// manifest never received).
	Run uint64 `json:"run"`
	// End counts failed EndSession calls.
	End uint64 `json:"end"`
	// Total sums the above.
	Total uint64 `json:"total"`
}

// StreamResult is one streaming run's measurement record: the
// BENCH_stream.json document.
type StreamResult struct {
	// Schema is the format version tag.
	Schema string `json:"schema"`
	// GeneratedAt is the run's wall-clock completion time (RFC 3339).
	GeneratedAt string `json:"generated_at"`
	// Target describes the measured deployment (mode, servers, R, B, T).
	Target TargetInfo `json:"target"`
	// Players, Playbacks, ZipfS, Window, Speed, and Seed echo the config.
	Players   int     `json:"players"`
	Playbacks int     `json:"playbacks_per_player"`
	ZipfS     float64 `json:"zipf_s,omitempty"`
	Window    int     `json:"window"`
	Speed     float64 `json:"speed"`
	Seed      int64   `json:"seed"`
	// ElapsedS is the run's wall time, seconds.
	ElapsedS float64 `json:"elapsed_s"`
	// Totals aggregates playback outcomes.
	Totals StreamTotals `json:"totals"`
	// Errors breaks hard errors down.
	Errors StreamErrors `json:"errors"`
	// Startup is the first-chunk delay distribution across playbacks.
	Startup LatencyExport `json:"startup"`
	// Stall is the per-playback total stall time distribution — the
	// experiment's headline: how long clients rebuffered, notably across
	// a failover.
	Stall LatencyExport `json:"stall"`
}

// streamAgg accumulates playback stats across player goroutines.
type streamAgg struct {
	startup metrics.Histogram
	stall   metrics.Histogram

	mu     sync.Mutex
	totals StreamTotals
	errs   StreamErrors
}

func (a *streamAgg) record(stats vod.StreamStats) {
	a.startup.Observe(stats.StartupDelay)
	a.stall.Observe(stats.StallTime)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.totals.Playbacks++
	if stats.Completed {
		a.totals.Completed++
	}
	a.totals.Chunks += uint64(stats.Chunks)
	a.totals.Bytes += uint64(stats.Bytes)
	a.totals.Rebuffers += uint64(stats.Stalls)
	a.totals.StallS += stats.StallTime.Seconds()
	a.totals.Duplicates += uint64(stats.Duplicates)
	a.totals.CRCErrors += uint64(stats.CRCErrors)
	a.totals.Pulls += uint64(stats.Pulls)
	a.totals.Repulls += uint64(stats.Repulls)
	a.totals.PullErrors += uint64(stats.PullErrors)
}

// RunStream drives the configured streaming workload and reports the
// measurements.
func RunStream(cfg StreamConfig) (*StreamResult, error) {
	if cfg.Target == nil {
		return nil, fmt.Errorf("loadgen: StreamConfig.Target is required")
	}
	if cfg.Players == 0 {
		cfg.Players = 4
	}
	if cfg.Playbacks == 0 {
		cfg.Playbacks = 1
	}
	if cfg.Window == 0 {
		cfg.Window = 16
	}
	if cfg.Speed == 0 {
		cfg.Speed = 1
	}
	if cfg.PullTimeout == 0 {
		cfg.PullTimeout = 500 * time.Millisecond
	}
	if cfg.MaxWall == 0 {
		cfg.MaxWall = 60 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	units := cfg.Target.Units()
	if len(units) == 0 {
		return nil, fmt.Errorf("loadgen: target has no content units")
	}

	stop := make(chan struct{})
	defer close(stop)
	if cfg.InjectAfter > 0 && cfg.Inject != nil {
		go func() {
			select {
			case <-time.After(cfg.InjectAfter):
				cfg.Inject()
			case <-stop:
			}
		}()
	}

	agg := &streamAgg{}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Players; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runStreamPlayer(cfg, i, units, agg)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &StreamResult{
		Schema:      StreamSchema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Target:      cfg.Target.Info(),
		Players:     cfg.Players,
		Playbacks:   cfg.Playbacks,
		ZipfS:       cfg.ZipfS,
		Window:      cfg.Window,
		Speed:       cfg.Speed,
		Seed:        cfg.Seed,
		ElapsedS:    elapsed.Seconds(),
		Totals:      agg.totals,
		Errors:      agg.errs,
		Startup:     agg.startup.Export(),
		Stall:       agg.stall.Export(),
	}
	res.Errors.Total = res.Errors.Client + res.Errors.Start + res.Errors.Run + res.Errors.End
	return res, nil
}

// runStreamPlayer is one player's run: attach a client, stream Playbacks
// Zipf-sampled titles back to back, and record each playback's stats.
func runStreamPlayer(cfg StreamConfig, idx int, units []ids.UnitName, agg *streamAgg) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(idx)*7919))
	var zipf *rand.Zipf
	if cfg.ZipfS > 1 && len(units) > 1 {
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(units)-1))
	}
	pick := func() ids.UnitName {
		if len(units) == 1 {
			return units[0]
		}
		if zipf != nil {
			return units[int(zipf.Uint64())]
		}
		return units[rng.Intn(len(units))]
	}

	client, err := cfg.Target.NewClient(nil)
	if err != nil {
		agg.mu.Lock()
		agg.errs.Client++
		agg.mu.Unlock()
		return
	}
	defer client.Close()

	for pb := 0; pb < cfg.Playbacks; pb++ {
		player := vod.NewStreamPlayer(vod.StreamPlayerConfig{
			Window:      cfg.Window,
			Speed:       cfg.Speed,
			PullTimeout: cfg.PullTimeout,
		})
		sess, err := client.StartSession(pick(), player.Handler)
		if err != nil {
			agg.mu.Lock()
			agg.errs.Start++
			agg.mu.Unlock()
			continue
		}
		stats, err := player.Run(sess, cfg.MaxWall)
		if err != nil {
			agg.mu.Lock()
			agg.errs.Run++
			agg.mu.Unlock()
		}
		agg.record(stats)
		if err := sess.End(); err != nil {
			agg.mu.Lock()
			agg.errs.End++
			agg.mu.Unlock()
		}
	}
}

// WriteJSON writes the result to path, indented.
func (r *StreamResult) WriteJSON(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// Summary renders a short human-readable digest.
func (r *StreamResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "target: %s, %d servers (R=%d B=%d T=%dms), %d players x %d playbacks (window=%d speed=%.0fx)\n",
		r.Target.Mode, r.Target.Servers, r.Target.Replication, r.Target.Backups,
		r.Target.PropagationMS, r.Players, r.Playbacks, r.Window, r.Speed)
	fmt.Fprintf(&b, "playback: %d/%d completed, %d chunks / %.1f MiB consumed over %.1fs\n",
		r.Totals.Completed, r.Totals.Playbacks, r.Totals.Chunks,
		float64(r.Totals.Bytes)/(1<<20), r.ElapsedS)
	fmt.Fprintf(&b, "stalls: %d rebuffer events, %.3fs total (p50=%v p99=%v max=%v per playback); startup p50=%v\n",
		r.Totals.Rebuffers, r.Totals.StallS,
		time.Duration(r.Stall.P50NS), time.Duration(r.Stall.P99NS), time.Duration(r.Stall.MaxNS),
		time.Duration(r.Startup.P50NS))
	fmt.Fprintf(&b, "integrity: %d duplicates (takeover window), %d CRC errors; pulls=%d repulls=%d errors=%d\n",
		r.Totals.Duplicates, r.Totals.CRCErrors, r.Totals.Pulls, r.Totals.Repulls, r.Errors.Total)
	return b.String()
}
