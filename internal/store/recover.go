package store

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"hafw/internal/ids"
	"hafw/internal/unitdb"
)

// RecoverStats reports what Recover found on disk.
type RecoverStats struct {
	// CheckpointSeq is the segment index of the checkpoint restored (0 if
	// none existed).
	CheckpointSeq uint64
	// CheckpointSessions is the number of sessions in that checkpoint.
	CheckpointSessions int
	// Segments is the number of WAL segments replayed.
	Segments int
	// Replayed is the number of log records applied on top of the
	// checkpoint.
	Replayed int
	// Torn reports that replay stopped at a torn or corrupt record — the
	// tail written by a crashed process. Everything before it is applied.
	Torn bool
	// TornSegment and TornOffset locate the first invalid byte when Torn.
	TornSegment uint64
	TornOffset  int64
}

// dirState is the parsed directory listing: which checkpoints and
// segments exist.
type dirState struct {
	checkpoints []uint64 // sorted ascending
	segments    []uint64 // sorted ascending
}

func listDir(dir string) (dirState, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return dirState{}, err
	}
	var st dirState
	for _, e := range entries {
		var seq uint64
		if n, _ := fmt.Sscanf(e.Name(), "ckpt-%d.snap", &seq); n == 1 {
			st.checkpoints = append(st.checkpoints, seq)
		} else if n, _ := fmt.Sscanf(e.Name(), "wal-%d.log", &seq); n == 1 {
			st.segments = append(st.segments, seq)
		}
	}
	sort.Slice(st.checkpoints, func(i, j int) bool { return st.checkpoints[i] < st.checkpoints[j] })
	sort.Slice(st.segments, func(i, j int) bool { return st.segments[i] < st.segments[j] })
	return st, nil
}

// Recover rebuilds a unit database from a store directory: it restores
// the newest valid checkpoint, then replays every WAL segment at or after
// it, stopping cleanly at the first torn or corrupt record (a crashed
// process's unfinished tail). A missing or empty directory yields an
// empty database for the given unit; checkpoints of which none is
// readable yield an error.
func Recover(dir string, unit ids.UnitName) (*unitdb.DB, RecoverStats, error) {
	db := unitdb.New(unit)
	var stats RecoverStats

	st, err := listDir(dir)
	if os.IsNotExist(err) {
		return db, stats, nil
	}
	if err != nil {
		return nil, stats, fmt.Errorf("store: recover: %w", err)
	}

	// Newest checkpoint that validates wins; older ones are fallbacks
	// against latent corruption. The segments before the oldest one were
	// truncated away, so when none validates the log alone would rebuild
	// a database silently missing sessions: refuse instead.
	for i := len(st.checkpoints) - 1; i >= 0; i-- {
		seq := st.checkpoints[i]
		snap, err := readCheckpoint(filepath.Join(dir, checkpointName(seq)))
		if err != nil {
			if i == 0 {
				return nil, stats, fmt.Errorf("store: recover: no checkpoint is readable and the log they truncated is gone: %w", err)
			}
			continue
		}
		db.Restore(snap)
		db.Unit = unit
		stats.CheckpointSeq = seq
		stats.CheckpointSessions = len(snap.Sessions)
		break
	}

	for _, seg := range st.segments {
		if seg < stats.CheckpointSeq {
			continue // truncated by the checkpoint; stale leftover
		}
		f, err := os.Open(filepath.Join(dir, segmentName(seg)))
		if err != nil {
			return nil, stats, fmt.Errorf("store: recover segment %d: %w", seg, err)
		}
		validEnd, torn, err := scanFrames(bufio.NewReader(f), func(payload []byte) error {
			rec, ok := Decode[Record](payload)
			if !ok {
				return fmt.Errorf("store: segment %d: a record does not decode", seg)
			}
			rec.Apply(db)
			stats.Replayed++
			return nil
		})
		f.Close()
		if err != nil {
			return nil, stats, err
		}
		stats.Segments++
		if torn {
			stats.Torn = true
			stats.TornSegment = seg
			stats.TornOffset = validEnd
			break // everything after the tear is unreachable history
		}
	}
	return db, stats, nil
}
