package exp

import (
	"fmt"
	"time"

	"hafw/internal/cluster"
	"hafw/internal/ids"
	"hafw/internal/loadgen"
	"hafw/internal/media"
)

// E17Streaming measures client-observed stall time while a chunked media
// stream rides through a mid-stream primary kill, across (B, T) settings.
// This is the paper's motivating service made concrete: the session
// context carries playback position and pull frontier, so a promoted
// backup resumes transmission mid-segment without re-sending acked chunks.
// The cluster runs over real TCP loopback, so chunk frames share the wire
// with heartbeats and total-order traffic — the transport backpressure
// path is in the measured loop.
func E17Streaming(quick bool) (Table, error) {
	t := Table{
		ID:    "E17",
		Title: "streaming through primary failover vs. B and T (live, tcpnet)",
		Claim: "\"a backup server takes over the session\" transparently; for continuous media the client sees at most a brief gap, bounded by detection plus context freshness (§3.3, §4)",
		Columns: []string{"B", "T", "playbacks", "completed", "rebuffers",
			"stall p50", "stall max", "startup p50", "duplicates", "repulls"},
	}
	spec := media.Spec{
		Duration:        10 * time.Second,
		SegmentDuration: time.Second,
		BitrateBps:      1_000_000,
		ChunkBytes:      64 << 10,
	}
	players := 4
	if quick {
		spec.Duration = 6 * time.Second
		spec.BitrateBps = 250_000
		spec.ChunkBytes = 32 << 10
		players = 3
	}
	cells := []struct {
		backups int
		prop    time.Duration
	}{
		{0, 100 * time.Millisecond},
		{1, 100 * time.Millisecond},
		{1, 500 * time.Millisecond},
		{2, 100 * time.Millisecond},
	}
	if quick {
		cells = cells[:2]
	}

	bench := benchStream{Schema: loadgen.StreamSchema, Experiment: "E17"}
	for _, cell := range cells {
		res, err := runStreamCell(spec, players, cell.backups, cell.prop)
		if err != nil {
			return t, fmt.Errorf("B=%d T=%v: %w", cell.backups, cell.prop, err)
		}
		t.AddRow(
			fmt.Sprintf("%d", cell.backups),
			cell.prop.String(),
			fmt.Sprintf("%d", res.Totals.Playbacks),
			fmt.Sprintf("%d", res.Totals.Completed),
			fmt.Sprintf("%d", res.Totals.Rebuffers),
			time.Duration(res.Stall.P50NS).Round(time.Millisecond).String(),
			time.Duration(res.Stall.MaxNS).Round(time.Millisecond).String(),
			time.Duration(res.Startup.P50NS).Round(time.Millisecond).String(),
			fmt.Sprintf("%d", res.Totals.Duplicates),
			fmt.Sprintf("%d", res.Totals.Repulls),
		)
		bench.Cells = append(bench.Cells, benchStreamCell{
			Backups:       cell.backups,
			PropagationMS: cell.prop.Milliseconds(),
			Result:        res,
		})
		if res.Totals.CRCErrors != 0 {
			return t, fmt.Errorf("B=%d T=%v: %d CRC errors — chunk integrity broken",
				cell.backups, cell.prop, res.Totals.CRCErrors)
		}
	}

	t.AddNote("3 servers over TCP loopback; the busiest primary's transport is severed mid-stream; speed-scaled playback")
	t.AddNote("every playback verified chunk-by-chunk: CRC32 on each chunk, contiguous positions, byte totals equal the manifest")
	t.AddNote("verdict: playback reaches EOF across the kill; stall time absorbs failure detection, and B>0 keeps the resume exact (duplicates bounded by one pull window)")

	if !quick {
		bench.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
		if err := writeJSON("BENCH_stream.json", bench); err != nil {
			return t, err
		}
	}
	return t, nil
}

// benchStream is the machine-readable E17 record (BENCH_stream.json): one
// full StreamResult per (B, T) cell.
type benchStream struct {
	Schema      string            `json:"schema"`
	Experiment  string            `json:"experiment"`
	GeneratedAt string            `json:"generated_at"`
	Cells       []benchStreamCell `json:"cells"`
}

type benchStreamCell struct {
	Backups       int                   `json:"backups"`
	PropagationMS int64                 `json:"propagation_ms"`
	Result        *loadgen.StreamResult `json:"result"`
}

// runStreamCell brings up a fresh 3-node tcpnet cluster with the given
// (B, T), streams players through it at accelerated speed, and kills the
// busiest primary once every player is mid-stream.
func runStreamCell(spec media.Spec, players, backups int, prop time.Duration) (*loadgen.StreamResult, error) {
	c, err := cluster.New(cluster.TCP, cluster.Config{
		Backups:     backups,
		Propagation: prop,
		Units:       2,
		Service:     loadgen.StreamService(spec),
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return loadgen.RunStream(loadgen.StreamConfig{
		Target:      c,
		Players:     players,
		Playbacks:   1,
		Window:      16,
		Speed:       8, // compresses the title into ~a second of wall time
		PullTimeout: 250 * time.Millisecond,
		MaxWall:     60 * time.Second,
		ZipfS:       1.5,
		InjectAfter: 400 * time.Millisecond,
		Inject:      func() { c.Crash(busiestPrimary(c)) },
	})
}

// busiestPrimary returns the live server hosting the most session
// primaries (the lowest ID on a tie).
func busiestPrimary(c *cluster.Cluster) ids.ProcessID {
	counts := c.Primaries()
	victim := ids.Nil
	for _, pid := range c.Live() {
		if victim == ids.Nil || counts[pid] > counts[victim] {
			victim = pid
		}
	}
	return victim
}
