package store

import (
	"fmt"
	"os"
	"path/filepath"

	"hafw/internal/unitdb"
	"hafw/internal/wire"
)

// Checkpoint files hold one CRC-framed unitdb.Snapshot message. A
// checkpoint named ckpt-N captures the database state covered by segments
// < N; recovery restores the newest valid checkpoint and replays segments
// >= N on top.

// checkpointName returns the file name for a checkpoint at segment seq.
func checkpointName(seq uint64) string { return fmt.Sprintf("ckpt-%08d.snap", seq) }

// segmentName returns the file name for WAL segment seq.
func segmentName(seq uint64) string { return fmt.Sprintf("wal-%08d.log", seq) }

// writeCheckpoint atomically persists a snapshot: write to a temp file,
// fsync, rename into place, fsync the directory.
func writeCheckpoint(dir string, seq uint64, snap unitdb.Snapshot) error {
	body, err := wire.EncodeMessage(snap)
	if err != nil {
		return fmt.Errorf("store: encode checkpoint: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "ckpt-*.tmp")
	if err != nil {
		return fmt.Errorf("store: checkpoint temp: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	if err := appendFrame(tmp, body); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close checkpoint: %w", err)
	}
	final := filepath.Join(dir, checkpointName(seq))
	if err := os.Rename(tmpName, final); err != nil {
		return fmt.Errorf("store: publish checkpoint: %w", err)
	}
	return syncDir(dir)
}

// readCheckpoint loads and verifies one checkpoint file.
func readCheckpoint(path string) (unitdb.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return unitdb.Snapshot{}, err
	}
	defer f.Close()
	payload, err := readFrame(f)
	if err != nil {
		return unitdb.Snapshot{}, fmt.Errorf("store: checkpoint %s: %w", filepath.Base(path), errTorn)
	}
	snap, ok := Decode[unitdb.Snapshot](payload)
	if !ok {
		return unitdb.Snapshot{}, fmt.Errorf("store: decode checkpoint %s: not a snapshot", filepath.Base(path))
	}
	return snap, nil
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
