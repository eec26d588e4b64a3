// Package store makes the unit database durable: an append-only,
// CRC-framed write-ahead log of database mutations with segment rotation
// and a configurable fsync policy, plus periodic full-snapshot checkpoints
// that truncate the log. A crashed-and-restarted server recovers its
// database from checkpoint + log tail (Recover) and rejoins its content
// group warm, pulling only the sessions it missed over the network instead
// of the whole database — turning O(database) restart cost into
// O(changes).
//
// On-disk layout (one directory per content unit):
//
//	wal-00000001.log    CRC-framed mutation records (active tail segment)
//	ckpt-00000003.snap  newest checkpoint: state covered by segments < 3
//
// Durability is governed by Policy: FsyncAlways syncs every append (no
// acknowledged mutation is ever lost), FsyncInterval syncs on a timer
// (bounded loss window, near-memory append cost), FsyncNever leaves
// syncing to the OS (crash-consistent but lossy, like a cache).
package store

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"hafw/internal/ids"
	"hafw/internal/metrics"
	"hafw/internal/unitdb"
	"hafw/internal/wire"
)

// Policy selects when appends reach stable storage.
type Policy int

const (
	// FsyncInterval syncs every 100 ms; the default.
	FsyncInterval Policy = iota
	// FsyncAlways syncs after every append.
	FsyncAlways
	// FsyncNever never syncs explicitly.
	FsyncNever
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses a policy name as used by command-line flags.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return FsyncAlways, nil
	case "interval", "":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval, or never)", s)
}

const (
	// syncInterval is the FsyncInterval timer period.
	syncInterval = 100 * time.Millisecond
	// segmentLimit rotates the active segment past this size.
	segmentLimit = 4 << 20
)

// Options configures a store.
type Options struct {
	// Dir is the store directory (created if missing).
	Dir string
	// Unit names the content unit recovered into.
	Unit ids.UnitName
	// Policy is the fsync policy; zero value is FsyncInterval.
	Policy Policy
	// Metrics, when non-nil, receives store telemetry (wal_fsync_seconds,
	// wal_fsyncs_total).
	Metrics *metrics.Registry
}

// Store is one unit's durable log. Append and Checkpoint are safe for
// concurrent use, though the framework drives them from one goroutine.
type Store struct {
	opts Options

	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	seg      uint64 // active segment index
	segBytes int64  // bytes appended to the active segment
	segLimit int64  // rotation size: segmentLimit, which tests lower
	appends  uint64 // records appended since the last checkpoint
	closed   bool

	stop chan struct{}
	done chan struct{}
}

// Open recovers the directory's state and returns the recovered database
// alongside a store positioned to append. A torn tail (crash mid-write)
// is truncated so the log continues from the last valid record.
func Open(opts Options) (*Store, *unitdb.DB, RecoverStats, error) {
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, RecoverStats{}, fmt.Errorf("store: open: %w", err)
	}
	db, stats, err := Recover(opts.Dir, opts.Unit)
	if err != nil {
		return nil, nil, stats, err
	}
	if stats.Torn {
		// Drop the unreachable tail: truncate the torn segment to its
		// valid prefix and delete any segments after it.
		path := filepath.Join(opts.Dir, segmentName(stats.TornSegment))
		if err := os.Truncate(path, stats.TornOffset); err != nil {
			return nil, nil, stats, fmt.Errorf("store: truncate torn tail: %w", err)
		}
		st, _ := listDir(opts.Dir)
		for _, seg := range st.segments {
			if seg > stats.TornSegment {
				_ = os.Remove(filepath.Join(opts.Dir, segmentName(seg)))
			}
		}
	}

	s := &Store{opts: opts, segLimit: segmentLimit, stop: make(chan struct{}), done: make(chan struct{})}

	// Continue the highest existing segment, or start fresh.
	st, err := listDir(opts.Dir)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("store: open: %w", err)
	}
	s.seg = stats.CheckpointSeq
	if s.seg == 0 {
		s.seg = 1
	}
	if n := len(st.segments); n > 0 && st.segments[n-1] > s.seg {
		s.seg = st.segments[n-1]
	}
	if err := s.openSegmentLocked(); err != nil {
		return nil, nil, stats, err
	}

	go s.syncLoop()
	return s, db, stats, nil
}

// openSegmentLocked opens (appending) the active segment file.
func (s *Store) openSegmentLocked() error {
	f, err := os.OpenFile(filepath.Join(s.opts.Dir, segmentName(s.seg)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment %d: %w", s.seg, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: stat segment %d: %w", s.seg, err)
	}
	s.f = f
	s.bw = bufio.NewWriterSize(f, 64<<10)
	s.segBytes = info.Size()
	return nil
}

// Append logs one mutation record.
func (s *Store) Append(rec Record) error {
	// Each record is a self-contained message, so any frame decodes in
	// isolation: recovery never depends on earlier frames decoding.
	payload, err := wire.EncodeMessage(rec)
	if err != nil {
		return fmt.Errorf("store: encode record: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: append on closed store")
	}
	if s.segBytes >= s.segLimit {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	if err := appendFrame(s.bw, payload); err != nil {
		return err
	}
	s.segBytes += frameHeaderSize + int64(len(payload))
	s.appends++
	if s.opts.Policy == FsyncAlways {
		return s.syncLocked()
	}
	return nil
}

// rotateLocked closes the active segment and starts the next one.
func (s *Store) rotateLocked() error {
	if err := s.syncLocked(); err != nil {
		return err
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("store: close segment %d: %w", s.seg, err)
	}
	s.seg++
	return s.openSegmentLocked()
}

// AppendsSinceCheckpoint returns the number of records logged since the
// last checkpoint — the caller's trigger for taking the next one.
func (s *Store) AppendsSinceCheckpoint() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appends
}

// Checkpoint persists a full snapshot and truncates the log: the snapshot
// must capture every mutation appended so far. After it returns, recovery
// starts from this snapshot plus any later appends.
func (s *Store) Checkpoint(snap unitdb.Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: checkpoint on closed store")
	}
	// Seal the active segment so the checkpoint boundary is a segment
	// boundary, then publish the checkpoint covering everything sealed.
	if err := s.syncLocked(); err != nil {
		return err
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("store: close segment %d: %w", s.seg, err)
	}
	s.seg++
	if err := writeCheckpoint(s.opts.Dir, s.seg, snap); err != nil {
		// Reopen a segment so appends can continue even though the
		// checkpoint failed.
		_ = s.openSegmentLocked()
		return err
	}
	if err := s.openSegmentLocked(); err != nil {
		return err
	}
	s.appends = 0
	// Truncate: keep the newest checkpoint plus one predecessor as a
	// fallback against latent corruption, and every segment the fallback
	// would need; everything older is dead weight.
	st, err := listDir(s.opts.Dir)
	if err != nil {
		return nil
	}
	floor := s.seg
	if n := len(st.checkpoints); n >= 2 {
		floor = st.checkpoints[n-2]
		for _, c := range st.checkpoints[:n-2] {
			_ = os.Remove(filepath.Join(s.opts.Dir, checkpointName(c)))
		}
	}
	for _, seg := range st.segments {
		if seg < floor {
			_ = os.Remove(filepath.Join(s.opts.Dir, segmentName(seg)))
		}
	}
	return nil
}

// Sync flushes buffered appends to stable storage regardless of policy.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	if s.opts.Policy == FsyncNever {
		return nil
	}
	start := time.Now()
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	if s.opts.Metrics != nil {
		s.opts.Metrics.Histogram("wal_fsync_seconds").Observe(time.Since(start))
		s.opts.Metrics.Counter("wal_fsyncs_total").Inc()
	}
	return nil
}

// syncLoop drives the FsyncInterval policy.
func (s *Store) syncLoop() {
	defer close(s.done)
	if s.opts.Policy != FsyncInterval {
		<-s.stop
		return
	}
	ticker := time.NewTicker(syncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			_ = s.Sync()
		}
	}
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.opts.Dir }

// Close flushes and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	err := s.bw.Flush()
	if serr := s.f.Sync(); err == nil {
		err = serr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SegmentSeq returns the active segment index (diagnostics and tests).
func (s *Store) SegmentSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seg
}

// Stats is a point-in-time store summary for diagnostics (/statusz).
type Stats struct {
	// Dir is the store directory.
	Dir string `json:"dir"`
	// Policy names the fsync policy.
	Policy string `json:"policy"`
	// Segment is the active segment index.
	Segment uint64 `json:"segment"`
	// SegmentBytes is the active segment's size so far.
	SegmentBytes int64 `json:"segment_bytes"`
	// AppendsSinceCheckpoint counts records logged since the last
	// checkpoint.
	AppendsSinceCheckpoint uint64 `json:"appends_since_checkpoint"`
}

// Stats returns a snapshot of the store's diagnostics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Dir:                    s.opts.Dir,
		Policy:                 s.opts.Policy.String(),
		Segment:                s.seg,
		SegmentBytes:           s.segBytes,
		AppendsSinceCheckpoint: s.appends,
	}
}
