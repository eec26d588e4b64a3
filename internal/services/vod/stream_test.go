package vod

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hafw/internal/ids"
	"hafw/internal/media"
	"hafw/internal/wire"
)

func streamSpec() media.Spec {
	return media.Spec{
		Title:           "stream-test",
		Duration:        2 * time.Second,
		SegmentDuration: 500 * time.Millisecond,
		BitrateBps:      64_000,
		ChunkBytes:      4096,
	}
}

// streamResponder records every body Sent and can forward them to a
// player, standing in for the core responder.
type streamResponder struct {
	mu     sync.Mutex
	active bool
	bodies []wire.Message
	sink   func(wire.Message)
}

func newStreamResponder(sink func(wire.Message)) *streamResponder {
	return &streamResponder{active: true, sink: sink}
}

func (r *streamResponder) Send(body wire.Message) bool {
	r.mu.Lock()
	if !r.active {
		r.mu.Unlock()
		return false
	}
	r.bodies = append(r.bodies, body)
	sink := r.sink
	r.mu.Unlock()
	if sink != nil {
		sink(body)
	}
	return true
}

func (r *streamResponder) Stream(next func() (wire.Message, bool)) int {
	n := 0
	for {
		m, ok := next()
		if !ok || !r.Send(m) {
			return n
		}
		n++
	}
}

func (r *streamResponder) Client() ids.ClientID   { return 1 }
func (r *streamResponder) Session() ids.SessionID { return 1 }

func (r *streamResponder) deactivate() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active = false
}

// chunks returns the positions of every ChunkResp sent so far.
func (r *streamResponder) chunks() []media.Pos {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []media.Pos
	for _, b := range r.bodies {
		if c, ok := b.(ChunkResp); ok {
			out = append(out, c.Chunk.Pos())
		}
	}
	return out
}

func (r *streamResponder) manifests() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, b := range r.bodies {
		if _, ok := b.(ManifestResp); ok {
			n++
		}
	}
	return n
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestStreamServesManifestAndWindow(t *testing.T) {
	store := media.Synthesize(streamSpec())
	svc := NewStream(store, nil)
	man := svc.Manifest()
	ss := svc.NewSession("u", 1, 1).(*streamSession)
	defer ss.Close()
	r := newStreamResponder(nil)

	ss.Activate(r)
	ss.ApplyUpdate(GetManifest{})
	waitFor(t, "manifest", func() bool { return r.manifests() == 1 })

	ss.ApplyUpdate(GetChunk{Ack: media.Pos{}, From: media.Pos{}, Window: 8})
	waitFor(t, "8 chunks", func() bool { return len(r.chunks()) == 8 })

	got := r.chunks()
	p := media.Pos{}
	for i, pos := range got {
		if pos != p {
			t.Fatalf("chunk %d at %s, want %s", i, pos, p)
		}
		p = man.Next(p)
	}
	// Every sent chunk carries a valid CRC matching the store.
	r.mu.Lock()
	for _, b := range r.bodies {
		if c, ok := b.(ChunkResp); ok {
			if !c.Chunk.Verify() {
				t.Fatalf("chunk %s fails CRC", c.Chunk.Pos())
			}
		}
	}
	r.mu.Unlock()

	if ctx := ss.Context(); ctx.Pulls != 1 || ctx.Window != 8 {
		t.Errorf("context = %+v, want Pulls=1 Window=8", ctx)
	}
}

// TestStreamResumeExactOffset pins the takeover contract: a promoted
// backup that applied the client's pulls resumes transmission at exactly
// the acked frontier — no chunk the client acknowledged is re-delivered,
// no requested chunk is skipped.
func TestStreamResumeExactOffset(t *testing.T) {
	spec := streamSpec()
	primarySvc := NewStream(media.Synthesize(spec), nil)
	backupSvc := NewStream(media.Synthesize(spec), nil)
	man := primarySvc.Manifest()

	prim := primarySvc.NewSession("u", 1, 1).(*streamSession)
	back := backupSvc.NewSession("u", 1, 1).(*streamSession)
	defer prim.Close()
	defer back.Close()

	rp := newStreamResponder(nil)
	prim.Activate(rp)

	// Pull 1: client requests [0, 8); both replicas apply it (total order).
	pull1 := GetChunk{Ack: media.Pos{}, From: media.Pos{}, Window: 8}
	prim.ApplyUpdate(pull1)
	back.ApplyUpdate(pull1)
	waitFor(t, "first window", func() bool { return len(rp.chunks()) == 8 })

	// Client received and played [0, 8); its next pull acks that frontier
	// and requests [8, 16). The primary crashes *before* serving it: only
	// the backup (total order reaches every member) applies the pull.
	ack := man.At(8)
	pull2 := GetChunk{Ack: ack, From: ack, Window: 8}
	back.ApplyUpdate(pull2)

	rp.deactivate()
	prim.Deactivate()

	// Promotion: the backup resumes from its exact pull-derived context.
	rb := newStreamResponder(nil)
	back.Activate(rb)
	waitFor(t, "resumed window", func() bool { return len(rb.chunks()) == 8 })
	time.Sleep(20 * time.Millisecond) // would catch spurious extra sends

	got := rb.chunks()
	if len(got) != 8 {
		t.Fatalf("promoted backup sent %d chunks, want exactly 8", len(got))
	}
	if got[0] != ack {
		t.Fatalf("resume offset = %s, want exactly %s (the acked frontier)", got[0], ack)
	}
	p := ack
	for i, pos := range got {
		if pos != p {
			t.Fatalf("resumed chunk %d at %s, want %s (gap or reorder)", i, pos, p)
		}
		if man.Index(pos) < 8 {
			t.Fatalf("chunk %s re-delivered although acked", pos)
		}
		p = man.Next(p)
	}

	if ctx := back.Context(); ctx.Acked != ack || ctx.Pulls != 2 {
		t.Errorf("backup context = %+v, want Acked=%s Pulls=2", ctx, ack)
	}
}

func TestStreamSnapshotRestoreSync(t *testing.T) {
	svc := NewStream(media.Synthesize(streamSpec()), nil)
	man := svc.Manifest()
	a := svc.NewSession("u", 1, 1).(*streamSession)
	defer a.Close()

	a.ApplyUpdate(GetChunk{Ack: man.At(4), From: man.At(4), Window: 4, BitrateBps: 999})
	snap := a.Snapshot()

	// Restore: a cold replica adopts the context wholesale.
	b := svc.NewSession("u", 1, 1).(*streamSession)
	defer b.Close()
	b.Restore(snap)
	if got, want := b.Context(), a.Context(); got != want {
		t.Errorf("restored context = %+v, want %+v", got, want)
	}

	// Sync folds in only strictly fresher contexts.
	c := svc.NewSession("u", 1, 1).(*streamSession)
	defer c.Close()
	c.ApplyUpdate(GetChunk{Ack: man.At(6), From: man.At(6), Window: 4})
	c.ApplyUpdate(GetChunk{Ack: man.At(8), From: man.At(8), Window: 4})
	pre := c.Context()
	c.Sync(snap) // 1 pull < 2 pulls: stale, ignored
	if c.Context() != pre {
		t.Errorf("stale Sync overwrote exact context: %+v", c.Context())
	}
	d := svc.NewSession("u", 1, 1).(*streamSession)
	defer d.Close()
	d.Sync(c.Snapshot()) // 2 pulls > 0: adopted
	if got := d.Context(); got.Acked != man.At(8) {
		t.Errorf("fresh Sync not adopted: %+v", got)
	}
}

// playerHarness wires a StreamPlayer to one or more session replicas the
// way the framework would: client sends apply to every replica in total
// order; only the active replica's responder reaches the player.
type playerHarness struct {
	mu       sync.Mutex
	replicas []*streamSession
}

func (h *playerHarness) Send(body wire.Message) error {
	h.mu.Lock()
	reps := append([]*streamSession(nil), h.replicas...)
	h.mu.Unlock()
	for _, ss := range reps {
		ss.ApplyUpdate(body)
	}
	return nil
}

func TestStreamPlayerPlaysToEOF(t *testing.T) {
	// Every window tops up its pipeline before it drains: a clean run never
	// falls back to the timeout re-pull.
	for _, window := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("window%d", window), func(t *testing.T) {
			store := media.Synthesize(streamSpec())
			svc := NewStream(store, nil)
			ss := svc.NewSession("u", 1, 1).(*streamSession)
			defer ss.Close()

			player := NewStreamPlayer(StreamPlayerConfig{
				Window: window, Speed: 100, PullTimeout: 100 * time.Millisecond,
			})
			ss.Activate(newStreamResponder(func(b wire.Message) { player.Handler(0, b) }))

			stats, err := player.Run(&playerHarness{replicas: []*streamSession{ss}}, 10*time.Second)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			man := svc.Manifest()
			if !stats.Completed {
				t.Fatalf("playback incomplete: %+v", stats)
			}
			if stats.Chunks != man.TotalChunks() || stats.Bytes != man.TotalBytes() {
				t.Errorf("consumed %d chunks / %d bytes, want %d / %d",
					stats.Chunks, stats.Bytes, man.TotalChunks(), man.TotalBytes())
			}
			if stats.CRCErrors != 0 || stats.Duplicates != 0 {
				t.Errorf("clean run saw %d CRC errors, %d duplicates", stats.CRCErrors, stats.Duplicates)
			}
			if stats.Repulls != 0 {
				t.Errorf("clean run re-pulled %d times after a timeout", stats.Repulls)
			}
		})
	}
}

// TestStreamPlayerFailover drives a player through a mid-stream primary
// kill: the backup (which applied every pull) is promoted and the client
// must reach EOF with every chunk intact.
func TestStreamPlayerFailover(t *testing.T) {
	spec := streamSpec()
	primSvc := NewStream(media.Synthesize(spec), nil)
	backSvc := NewStream(media.Synthesize(spec), nil)
	prim := primSvc.NewSession("u", 1, 1).(*streamSession)
	back := backSvc.NewSession("u", 1, 1).(*streamSession)
	defer prim.Close()
	defer back.Close()

	player := NewStreamPlayer(StreamPlayerConfig{
		Window: 8, Speed: 20, PullTimeout: 50 * time.Millisecond,
	})
	rp := newStreamResponder(func(b wire.Message) { player.Handler(0, b) })
	prim.Activate(rp)

	harness := &playerHarness{replicas: []*streamSession{prim, back}}
	done := make(chan StreamStats, 1)
	go func() {
		stats, err := player.Run(harness, 20*time.Second)
		if err != nil {
			t.Errorf("Run: %v", err)
		}
		done <- stats
	}()

	// Kill the primary once some chunks have flowed.
	waitFor(t, "mid-stream", func() bool { return len(rp.chunks()) >= 8 })
	rp.deactivate()
	prim.Deactivate()
	back.Activate(newStreamResponder(func(b wire.Message) { player.Handler(0, b) }))

	stats := <-done
	man := primSvc.Manifest()
	if !stats.Completed {
		t.Fatalf("playback incomplete after failover: %+v", stats)
	}
	if stats.Chunks != man.TotalChunks() || stats.Bytes != man.TotalBytes() {
		t.Errorf("consumed %d chunks / %d bytes, want %d / %d (gap or loss)",
			stats.Chunks, stats.Bytes, man.TotalChunks(), man.TotalBytes())
	}
	if stats.CRCErrors != 0 {
		t.Errorf("%d CRC errors across failover", stats.CRCErrors)
	}
	// Duplicates are allowed only within one outstanding window (the
	// takeover uncertainty), never unbounded.
	if stats.Duplicates > 2*MaxWindow {
		t.Errorf("%d duplicates exceeds the uncertainty bound", stats.Duplicates)
	}
}
