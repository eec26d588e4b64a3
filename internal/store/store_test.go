package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hafw/internal/ids"
	"hafw/internal/unitdb"
)

func openT(t *testing.T, dir string, opts Options) (*Store, *unitdb.DB, RecoverStats) {
	t.Helper()
	opts.Dir = dir
	if opts.Unit == "" {
		opts.Unit = "u"
	}
	s, db, stats, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, db, stats
}

// logSession appends the records the framework would log for one new
// session with a context update.
func logSession(t *testing.T, s *Store, sid ids.SessionID, stamp uint64) {
	t.Helper()
	recs := []Record{
		{Op: OpCreate, SID: sid, Client: ids.ClientID(1000 + sid)},
		{Op: OpAlloc, SID: sid, Primary: 1, Backups: []ids.ProcessID{2}},
		{Op: OpCtx, SID: sid, Ctx: []byte(fmt.Sprintf("ctx-%d-%d", sid, stamp)), Stamp: stamp},
	}
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, db, _ := openT(t, dir, Options{Policy: FsyncAlways})
	if db.Len() != 0 {
		t.Fatalf("fresh dir recovered %d sessions", db.Len())
	}
	for i := 1; i <= 5; i++ {
		logSession(t, s, ids.SessionID(i), 3)
		Record{Op: OpCreate, SID: ids.SessionID(i), Client: ids.ClientID(1000 + i)}.Apply(db)
		Record{Op: OpAlloc, SID: ids.SessionID(i), Primary: 1, Backups: []ids.ProcessID{2}}.Apply(db)
		Record{Op: OpCtx, SID: ids.SessionID(i), Ctx: []byte(fmt.Sprintf("ctx-%d-3", i)), Stamp: 3}.Apply(db)
	}
	if err := s.Append(Record{Op: OpClose, SID: 2}); err != nil {
		t.Fatal(err)
	}
	db.Remove(2)
	want := db.Checksum()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got, stats, err := Recover(dir, "u")
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Torn {
		t.Fatal("clean log reported torn")
	}
	if stats.Replayed != 16 {
		t.Fatalf("replayed %d records, want 16", stats.Replayed)
	}
	if got.Checksum() != want {
		t.Fatal("recovered database differs from the live one")
	}
	if got.Get(2) != nil || !got.Tombstoned(2) {
		t.Fatal("recovery lost the session close")
	}
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s, db, _ := openT(t, dir, Options{Policy: FsyncAlways})
	for i := 1; i <= 8; i++ {
		logSession(t, s, ids.SessionID(i), uint64(i))
		db.Put(unitdb.Session{ID: ids.SessionID(i), Client: ids.ClientID(1000 + i)})
		db.SetAllocation(ids.SessionID(i), 1, []ids.ProcessID{2})
		db.UpdateContext(ids.SessionID(i), []byte(fmt.Sprintf("ctx-%d-%d", i, i)), uint64(i))
	}
	if err := s.Checkpoint(db.Snapshot()); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := s.AppendsSinceCheckpoint(); got != 0 {
		t.Fatalf("appends since checkpoint = %d, want 0", got)
	}
	// More appends after the checkpoint land in the tail.
	logSession(t, s, 9, 1)
	db.Put(unitdb.Session{ID: 9, Client: 1009})
	db.SetAllocation(9, 1, []ids.ProcessID{2})
	db.UpdateContext(9, []byte("ctx-9-1"), 1)
	want := db.Checksum()
	s.Close()

	got, stats, err := Recover(dir, "u")
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.CheckpointSessions != 8 {
		t.Fatalf("checkpoint held %d sessions, want 8", stats.CheckpointSessions)
	}
	if stats.Replayed != 3 {
		t.Fatalf("replayed %d tail records, want 3", stats.Replayed)
	}
	if got.Checksum() != want {
		t.Fatal("checkpoint+tail recovery differs from the live database")
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := openT(t, dir, Options{Policy: FsyncNever})
	s.segLimit = 256
	for i := 1; i <= 40; i++ {
		logSession(t, s, ids.SessionID(i), 1)
	}
	if s.SegmentSeq() < 3 {
		t.Fatalf("segment seq %d after 120 appends with 256-byte segments; rotation broken", s.SegmentSeq())
	}
	s.Close()
	got, stats, err := Recover(dir, "u")
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Segments < 3 {
		t.Fatalf("recovered across %d segments, want >= 3", stats.Segments)
	}
	if got.Len() != 40 {
		t.Fatalf("recovered %d sessions, want 40", got.Len())
	}
}

// TestTornFinalRecord truncates and corrupts the final WAL record and
// asserts recovery stops cleanly at the last valid record.
func TestTornFinalRecord(t *testing.T) {
	for _, mode := range []string{"truncate", "corrupt"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			s, _, _ := openT(t, dir, Options{Policy: FsyncAlways})
			for i := 1; i <= 4; i++ {
				logSession(t, s, ids.SessionID(i), 1)
			}
			seg := s.SegmentSeq()
			s.Close()

			// Damage the final record on disk.
			path := filepath.Join(dir, segmentName(seg))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			switch mode {
			case "truncate":
				data = data[:len(data)-5] // rip bytes off the last frame
			case "corrupt":
				data[len(data)-3] ^= 0xFF // flip bits inside the last payload
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			got, stats, err := Recover(dir, "u")
			if err != nil {
				t.Fatalf("Recover errored on torn tail: %v", err)
			}
			if !stats.Torn {
				t.Fatal("torn tail not reported")
			}
			if stats.Replayed != 11 {
				t.Fatalf("replayed %d records, want 11 (all but the damaged final one)", stats.Replayed)
			}
			// Sessions 1..4 exist; session 4's context record was the
			// damaged one, so it must be present but context-less.
			if got.Len() != 4 {
				t.Fatalf("recovered %d sessions, want 4", got.Len())
			}
			if s4 := got.Get(4); s4 == nil || s4.Stamp != 0 {
				t.Fatalf("damaged final record leaked into recovery: %+v", s4)
			}

			// Reopening truncates the tear and appends continue cleanly.
			s2, db2, stats2 := openT(t, dir, Options{Policy: FsyncAlways})
			if !stats2.Torn {
				t.Fatal("reopen did not see the torn tail")
			}
			logSession(t, s2, 5, 1)
			db2.Put(unitdb.Session{ID: 5, Client: 1005})
			s2.Close()
			got3, stats3, err := Recover(dir, "u")
			if err != nil {
				t.Fatal(err)
			}
			if stats3.Torn {
				t.Fatal("tear persisted past a truncating reopen")
			}
			if got3.Len() != 5 {
				t.Fatalf("post-repair recovery has %d sessions, want 5", got3.Len())
			}
		})
	}
}

// TestCorruptCheckpointFallsBack damages the newest checkpoint and checks
// recovery falls back to the prior one plus its segments.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, db, _ := openT(t, dir, Options{Policy: FsyncAlways})
	for i := 1; i <= 3; i++ {
		logSession(t, s, ids.SessionID(i), 1)
		db.Put(unitdb.Session{ID: ids.SessionID(i), Client: ids.ClientID(1000 + i)})
		db.SetAllocation(ids.SessionID(i), 1, []ids.ProcessID{2})
		db.UpdateContext(ids.SessionID(i), []byte(fmt.Sprintf("ctx-%d-1", i)), 1)
	}
	if err := s.Checkpoint(db.Snapshot()); err != nil {
		t.Fatal(err)
	}
	first := s.SegmentSeq()
	logSession(t, s, 4, 1)
	db.Put(unitdb.Session{ID: 4, Client: 1004})
	db.SetAllocation(4, 1, []ids.ProcessID{2})
	db.UpdateContext(4, []byte("ctx-4-1"), 1)
	if err := s.Checkpoint(db.Snapshot()); err != nil {
		t.Fatal(err)
	}
	second := s.SegmentSeq()
	s.Close()

	// Corrupt the newest checkpoint.
	path := filepath.Join(dir, checkpointName(second))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, stats, err := Recover(dir, "u")
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.CheckpointSeq != first {
		t.Fatalf("recovered from checkpoint %d, want fallback %d", stats.CheckpointSeq, first)
	}
	if got.Len() != 4 {
		t.Fatalf("fallback recovery has %d sessions, want 4 (3 from checkpoint + 1 replayed)", got.Len())
	}
}

func TestFsyncIntervalFlushes(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := openT(t, dir, Options{Policy: FsyncInterval})
	logSession(t, s, 1, 1)
	// Without closing, the background syncer must flush within a few
	// intervals; poll the recovered view.
	deadline := time.Now().Add(2 * time.Second)
	for {
		got, _, err := Recover(dir, "u")
		if err == nil && got.Len() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval fsync never flushed the append")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close()
}

func TestRecoverMissingDir(t *testing.T) {
	db, stats, err := Recover(filepath.Join(t.TempDir(), "nope"), "u")
	if err != nil {
		t.Fatalf("missing dir should recover empty, got %v", err)
	}
	if db.Len() != 0 || stats.Replayed != 0 {
		t.Fatal("missing dir recovered state")
	}
}

// TestUnreadableCheckpointsFail replaces both kept checkpoints with frames
// that pass their CRC but hold no snapshot. The segments before them were
// truncated, so replaying the rest would silently lose sessions 1-3:
// recovery must fail instead.
func TestUnreadableCheckpointsFail(t *testing.T) {
	dir := t.TempDir()
	s, db, _ := openT(t, dir, Options{Policy: FsyncAlways})
	for i := 1; i <= 4; i++ {
		logSession(t, s, ids.SessionID(i), 1)
		db.Put(unitdb.Session{ID: ids.SessionID(i), Client: ids.ClientID(1000 + i)})
		if i >= 2 {
			if err := s.Checkpoint(db.Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Close()
	st, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.checkpoints) != 2 {
		t.Fatalf("%d checkpoints kept, want 2", len(st.checkpoints))
	}
	for _, seq := range st.checkpoints {
		f, err := os.Create(filepath.Join(dir, checkpointName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		if err := appendFrame(f, []byte("not a snapshot")); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if db, _, err := Recover(dir, "u"); err == nil {
		t.Fatalf("recovered %d of 4 sessions from unreadable checkpoints without an error", db.Len())
	}
	if _, _, _, err := Open(Options{Dir: dir, Unit: "u"}); err == nil {
		t.Fatal("Open accepted unreadable checkpoints")
	}
}

// FuzzRecover writes the input as a directory's only WAL segment, and
// framed as its only checkpoint, and recovers each. Recover may fail but
// must not panic. The seeds are the segments and checkpoint bodies of the
// frozen directories, one per format.
func FuzzRecover(f *testing.F) {
	for _, dir := range []string{"gob-era", "binary"} {
		seg, err := os.ReadFile(filepath.Join("testdata", dir, segmentName(2)))
		if err != nil {
			f.Fatal(err)
		}
		ckpt, err := os.ReadFile(filepath.Join("testdata", dir, checkpointName(2)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seg)
		f.Add(ckpt[frameHeaderSize:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		segDir, ckptDir := t.TempDir(), t.TempDir()
		if err := os.WriteFile(filepath.Join(segDir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		Recover(segDir, "u")
		ckpt, err := os.Create(filepath.Join(ckptDir, checkpointName(1)))
		if err != nil {
			t.Fatal(err)
		}
		err = appendFrame(ckpt, data)
		ckpt.Close()
		if err != nil {
			return
		}
		Recover(ckptDir, "u")
	})
}
