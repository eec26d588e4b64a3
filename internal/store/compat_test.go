package store_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/loadgen"
	"hafw/internal/media"
	"hafw/internal/services/vod"
	"hafw/internal/store"
)

const gobEra = "testdata/gob-era"

// TestRecoverFrozenDirectories recovers two frozen data directories with
// the same content. testdata/gob-era was written by the last build that
// encoded log records, checkpoints and session contexts with gob;
// testdata/binary by the first one that used the wire codec. Each holds
// one checkpoint and one segment with the contexts of the three services
// hanode serves: the echo service's in both, the stream plane's in the
// checkpoint, the frame plane's in the segment. Neither is ever
// regenerated.
func TestRecoverFrozenDirectories(t *testing.T) {
	for _, dir := range []string{gobEra, "testdata/binary"} {
		t.Run(filepath.Base(dir), func(t *testing.T) { checkFrozen(t, dir) })
	}
}

func checkFrozen(t *testing.T, dir string) {
	db, stats, err := store.Recover(dir, "big-buck-bunny")
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.CheckpointSeq != 2 || stats.CheckpointSessions != 2 || stats.Replayed != 4 || stats.Torn {
		t.Fatalf("stats = %+v, want checkpoint 2 with 2 sessions and 4 replayed records", stats)
	}
	if db.Len() != 3 || !db.Tombstoned(4) {
		t.Fatalf("recovered %d sessions (tombstone 4: %v), want 3 and a tombstone", db.Len(), db.Tombstoned(4))
	}
	check := func(sid ids.SessionID, primary ids.ProcessID, backups []ids.ProcessID, stamp uint64, got, want any) {
		t.Helper()
		s := db.Get(sid)
		if s.Client != ids.ClientID(100+sid) || s.Primary != primary || !reflect.DeepEqual(s.Backups, backups) || s.Stamp != stamp {
			t.Errorf("session %d = %+v", sid, *s)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("session %d context = %+v, want %+v", sid, got, want)
		}
	}
	echo, ok := core.DecodeContext[loadgen.EchoContext](db.Get(1).Context)
	if !ok {
		t.Fatal("echo context does not decode")
	}
	check(1, 1, []ids.ProcessID{2, 3}, 2, echo, loadgen.EchoContext{Applied: 3, LastSeq: 9})
	stream, ok := core.DecodeContext[vod.StreamContext](db.Get(2).Context)
	if !ok {
		t.Fatal("stream context does not decode")
	}
	check(2, 2, []ids.ProcessID{3}, 4, stream, vod.StreamContext{
		Acked: media.Pos{Seg: 1, Chunk: 2}, ReqUpTo: media.Pos{Seg: 1, Chunk: 6},
		Window: 4, BitrateBps: 2_500_000, Pulls: 5,
	})
	frames, ok := core.DecodeContext[vod.Context](db.Get(3).Context)
	if !ok {
		t.Fatal("frame-plane context does not decode")
	}
	check(3, 3, []ids.ProcessID{1}, 7, frames, vod.Context{Pos: 420, Playing: true, FPS: 29.97})
}

// TestAppendToGobEraDirectory opens a copy of testdata/gob-era, as an
// upgraded node does: its binary records follow the gob ones in the same
// segment, and its next checkpoint supersedes the gob one.
func TestAppendToGobEraDirectory(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"ckpt-00000002.snap", "wal-00000002.log"} {
		data, err := os.ReadFile(filepath.Join(gobEra, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	opts := store.Options{Dir: dir, Unit: "big-buck-bunny", Policy: store.FsyncNever}
	s, db, _, err := store.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	echo := core.EncodeContext(loadgen.EchoContext{Applied: 4, LastSeq: 12})
	for _, r := range []store.Record{
		{Op: store.OpCtx, SID: 1, Ctx: echo, Stamp: 3},
		{Op: store.OpCreate, SID: 5, Client: 105},
	} {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
		r.Apply(db)
	}
	want := db.Checksum()
	s.Close()
	mixed, stats, err := store.Recover(dir, opts.Unit)
	if err != nil || stats.Replayed != 6 || mixed.Checksum() != want {
		t.Fatalf("mixed segment: replayed %d (want 6), matches the live database: %v, err %v", stats.Replayed, mixed.Checksum() == want, err)
	}

	s, db, _, err = store.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(db.Snapshot()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	binary, stats, err := store.Recover(dir, opts.Unit)
	if err != nil || stats.Replayed != 0 || binary.Checksum() != want {
		t.Fatalf("binary checkpoint: replayed %d (want 0), matches the live database: %v, err %v", stats.Replayed, binary.Checksum() == want, err)
	}
	if got, _ := core.DecodeContext[loadgen.EchoContext](binary.Get(1).Context); got != (loadgen.EchoContext{Applied: 4, LastSeq: 12}) {
		t.Fatalf("echo context = %+v after the binary checkpoint", got)
	}
}
