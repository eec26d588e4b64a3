package vod

import (
	"fmt"
	"sync"
	"time"

	"hafw/internal/media"
	"hafw/internal/metrics"
	"hafw/internal/wire"
)

// ChunkSender is the slice of core.ClientSession the player needs; tests
// substitute a loopback.
type ChunkSender interface {
	Send(body wire.Message) error
}

// StreamPlayerConfig tunes a StreamPlayer.
type StreamPlayerConfig struct {
	// Window is the pull window in chunks. Zero means 16. The player
	// pulls again once fewer than half a window (at least one chunk) are
	// outstanding.
	Window int
	// Speed is the playback-speed multiplier (2 consumes media twice as
	// fast as real time). Zero means 1.
	Speed float64
	// PullTimeout is how long the player waits without progress before
	// re-pulling from its frontier — the recovery path after a failover.
	// Zero means 500ms.
	PullTimeout time.Duration
	// Registry, when non-nil, receives player metrics: the
	// stream_stall_seconds histogram, the stream_buffer_chunks gauge, and
	// chunk_bytes_total.
	Registry *metrics.Registry
}

// StreamStats summarizes one playback.
type StreamStats struct {
	// Title is the streamed title.
	Title string
	// Chunks and Bytes count consumed (played) media.
	Chunks int
	Bytes  int64
	// Completed reports whether playback reached end-of-title.
	Completed bool
	// StartupDelay is the time from Run to the first consumed chunk.
	StartupDelay time.Duration
	// StallTime is the total wall time playback was blocked waiting for
	// a chunk past its due moment; Stalls counts the rebuffer events.
	StallTime time.Duration
	Stalls    int
	// Duplicates counts received chunks already played or buffered (the
	// takeover uncertainty window); Dropped counts chunks outside any
	// requested range. CRCErrors counts integrity failures (discarded).
	Duplicates int
	CRCErrors  int
	// Pulls counts GetChunk requests; Repulls counts the subset sent on
	// the timeout/recovery path. PullErrors counts pull sends that failed
	// transiently (e.g. an unresolvable session group during a view
	// change) and were retried rather than aborting playback.
	Pulls      int
	Repulls    int
	PullErrors int
}

// StreamPlayer consumes a chunked stream: it fetches the manifest, issues
// windowed pulls, verifies every chunk's CRC and position, plays at the
// manifest bitrate, and accounts stalls. It is the client half of the
// stream plane and the measurement probe of the streaming experiments.
type StreamPlayer struct {
	cfg StreamPlayerConfig
	// lowWater is the outstanding-chunk count below which the pipeline is
	// topped up: half the window, and at least one, or a window of one
	// would wait out PullTimeout for every chunk.
	lowWater int

	stallHist  *metrics.Histogram
	bufGauge   *metrics.Gauge
	chunkBytes *metrics.Counter

	mu       sync.Mutex
	man      media.Manifest
	haveMan  bool
	frontier media.Pos // next chunk playback needs
	buffered map[media.Pos]media.Chunk
	stats    StreamStats
	notify   chan struct{}
}

// NewStreamPlayer creates a player; register its Handler with
// Client.StartSession, then call Run with the resulting session.
func NewStreamPlayer(cfg StreamPlayerConfig) *StreamPlayer {
	if cfg.Window <= 0 {
		cfg.Window = 16
	}
	if cfg.Window > MaxWindow {
		cfg.Window = MaxWindow
	}
	if cfg.Speed <= 0 {
		cfg.Speed = 1
	}
	if cfg.PullTimeout <= 0 {
		cfg.PullTimeout = 500 * time.Millisecond
	}
	p := &StreamPlayer{
		cfg:      cfg,
		lowWater: max(1, cfg.Window/2),
		buffered: make(map[media.Pos]media.Chunk),
		notify:   make(chan struct{}, 1),
	}
	if cfg.Registry != nil {
		p.stallHist = cfg.Registry.Histogram("stream_stall_seconds")
		p.bufGauge = cfg.Registry.Gauge("stream_buffer_chunks")
		p.chunkBytes = cfg.Registry.Counter("chunk_bytes_total")
	}
	return p
}

// Handler is the core.ResponseHandler feeding the player.
func (p *StreamPlayer) Handler(seq uint64, body wire.Message) {
	switch m := body.(type) {
	case ManifestResp:
		p.mu.Lock()
		if !p.haveMan {
			p.man = m.Manifest
			p.haveMan = true
			p.stats.Title = m.Manifest.Title
		}
		p.mu.Unlock()
		p.wake()
	case ChunkResp:
		c := m.Chunk
		p.mu.Lock()
		if !c.Verify() {
			p.stats.CRCErrors++
			p.mu.Unlock()
			return
		}
		pos := c.Pos()
		_, buffered := p.buffered[pos]
		if buffered || pos.Before(p.frontier) {
			// Already buffered or already played: the takeover
			// uncertainty window, counted but not replayed.
			p.stats.Duplicates++
			p.mu.Unlock()
			return
		}
		p.buffered[pos] = c
		if p.chunkBytes != nil {
			p.chunkBytes.Add(uint64(len(c.Data)))
		}
		if p.bufGauge != nil {
			p.bufGauge.Set(int64(len(p.buffered)))
		}
		p.mu.Unlock()
		p.wake()
	}
}

func (p *StreamPlayer) wake() {
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

// Stats returns a snapshot of the playback statistics.
func (p *StreamPlayer) Stats() StreamStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Run streams to end-of-title or until maxWall elapses (maxWall <= 0
// means no wall limit), and returns the final statistics. An error is
// returned only when a pull cannot be sent or the manifest never arrives.
func (p *StreamPlayer) Run(sess ChunkSender, maxWall time.Duration) (StreamStats, error) {
	start := time.Now()
	var deadline time.Time
	if maxWall > 0 {
		deadline = start.Add(maxWall)
	}

	man, err := p.fetchManifest(sess, deadline)
	if err != nil {
		return p.Stats(), err
	}
	bitrate := man.BitrateBps
	end := man.End()

	// reqUpTo is the exclusive end of everything requested so far. A pull
	// whose send fails is counted and dropped: the request is idempotent
	// and the no-progress timeout below re-issues it, so transient
	// resolution failures (a session group mid-view-change, a rejoining
	// replica) stall playback instead of aborting it.
	reqUpTo := media.Pos{}
	pull := func(from media.Pos, repull bool) {
		p.mu.Lock()
		ack := p.frontier
		p.stats.Pulls++
		if repull {
			p.stats.Repulls++
		}
		p.mu.Unlock()
		if err := sess.Send(GetChunk{Ack: ack, From: from, Window: p.cfg.Window, BitrateBps: bitrate}); err != nil {
			p.mu.Lock()
			p.stats.PullErrors++
			p.mu.Unlock()
			return
		}
		if next := man.Advance(from, p.cfg.Window); reqUpTo.Before(next) {
			reqUpTo = next
		}
	}
	pull(media.Pos{}, false)

	var (
		played     time.Duration // media time consumed, wall-scaled by Speed
		firstChunk = false
		lastSeen   = time.Now()
	)
	for {
		p.mu.Lock()
		frontier := p.frontier
		if frontier == end {
			p.stats.Completed = true
			p.mu.Unlock()
			return p.Stats(), nil
		}
		c, ok := p.buffered[frontier]
		if ok {
			delete(p.buffered, frontier)
			p.frontier = man.Next(frontier)
			p.stats.Chunks++
			p.stats.Bytes += int64(len(c.Data))
			if p.bufGauge != nil {
				p.bufGauge.Set(int64(len(p.buffered)))
			}
			if !firstChunk {
				firstChunk = true
				p.stats.StartupDelay = time.Since(start)
			}
		}
		p.mu.Unlock()

		if ok {
			lastSeen = time.Now()
			// Pace playback: this chunk takes len/bitrate media-seconds.
			played += time.Duration(float64(len(c.Data)) * float64(time.Second) / float64(bitrate) / p.cfg.Speed)
			// Top up the pipeline before sleeping off the playback debt.
			if man.Index(reqUpTo)-man.Index(p.front()) < p.lowWater && reqUpTo != end {
				pull(reqUpTo, false)
			}
			if wait := played - p.stallFreeElapsed(start); wait > 0 {
				if !deadline.IsZero() && time.Now().Add(wait).After(deadline) {
					return p.Stats(), nil
				}
				time.Sleep(wait)
			}
			continue
		}

		// Frontier chunk missing: stall until it arrives, re-pulling on
		// timeout (the failover recovery path). The wait before the first
		// chunk is startup delay, not a stall.
		stallStart := time.Now()
		record := func() {
			if firstChunk {
				p.recordStall(time.Since(stallStart))
			}
		}
		for {
			waitFor := p.cfg.PullTimeout - time.Since(lastSeen)
			if waitFor <= 0 {
				waitFor = p.cfg.PullTimeout
			}
			if !deadline.IsZero() {
				if rem := time.Until(deadline); rem <= 0 {
					record()
					return p.Stats(), nil
				} else if rem < waitFor {
					waitFor = rem
				}
			}
			timer := time.NewTimer(waitFor)
			select {
			case <-p.notify:
				timer.Stop()
			case <-timer.C:
			}
			p.mu.Lock()
			_, have := p.buffered[p.frontier]
			frontier := p.frontier
			p.mu.Unlock()
			if have {
				break
			}
			if time.Since(lastSeen) >= p.cfg.PullTimeout {
				// No progress for a full timeout: assume the pull (or its
				// responses) died with the old primary and re-request the
				// outstanding range from the frontier.
				pull(frontier, true)
				lastSeen = time.Now()
			}
		}
		record()
	}
}

// front returns the current frontier.
func (p *StreamPlayer) front() media.Pos {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.frontier
}

// stallFreeElapsed is wall time since start minus accumulated stalls —
// the clock playback paces against.
func (p *StreamPlayer) stallFreeElapsed(start time.Time) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return time.Since(start) - p.stats.StallTime
}

func (p *StreamPlayer) recordStall(d time.Duration) {
	p.mu.Lock()
	p.stats.StallTime += d
	p.stats.Stalls++
	p.mu.Unlock()
	if p.stallHist != nil {
		p.stallHist.Observe(d)
	}
}

// fetchManifest requests the manifest, re-sending on timeout or send
// failure, until it arrives or the deadline passes. Send failures are
// transient during view changes, so they back off and retry like
// timeouts rather than aborting.
func (p *StreamPlayer) fetchManifest(sess ChunkSender, deadline time.Time) (media.Manifest, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		p.mu.Lock()
		man, ok := p.man, p.haveMan
		p.mu.Unlock()
		if ok {
			return man, nil
		}
		if attempt > 0 && !deadline.IsZero() && time.Now().After(deadline) {
			if lastErr != nil {
				return media.Manifest{}, fmt.Errorf("vod: manifest not received: %w", lastErr)
			}
			return media.Manifest{}, fmt.Errorf("vod: manifest not received")
		}
		if err := sess.Send(GetManifest{}); err != nil {
			lastErr = err
			p.mu.Lock()
			p.stats.PullErrors++
			p.mu.Unlock()
		}
		timer := time.NewTimer(p.cfg.PullTimeout)
		select {
		case <-p.notify:
			timer.Stop()
		case <-timer.C:
		}
	}
}
