package exp

import (
	"fmt"
	"os"
	"strings"
	"time"

	"hafw/internal/cluster"
	"hafw/internal/ids"
	"hafw/internal/services/ledger"
	"hafw/internal/store"
)

// This file measures the durable-store subsystem: how fast a restarted
// server rebuilds its unit database from checkpoint + WAL, and how many
// state-transfer bytes a warm rejoin (disk intact) saves over a cold one
// (disk wiped) thanks to the delta exchange.

// RejoinResult captures one stop/restart cycle at the restarted server.
type RejoinResult struct {
	// RecoveredSessions is how many sessions came back from local disk.
	RecoveredSessions uint64
	// BytesReceived is the encoded size of all state-exchange messages
	// (offers + deltas) the restarted server received over the network.
	BytesReceived uint64
	// SessionsReceived is how many session records peers shipped to it.
	SessionsReceived uint64
}

// offlineRecoverTime builds a WAL of n sessions and times Recover.
func offlineRecoverTime(n int) (time.Duration, int, error) {
	dir, err := os.MkdirTemp("", "hafw-e13-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	s, _, _, err := store.Open(store.Options{Dir: dir, Unit: "u", Policy: store.FsyncNever})
	if err != nil {
		return 0, 0, err
	}
	ctx := make([]byte, 64)
	for i := 1; i <= n; i++ {
		sid := ids.SessionID(i)
		recs := []store.Record{
			{Op: store.OpCreate, SID: sid, Client: ids.ClientID(1000 + i)},
			{Op: store.OpAlloc, SID: sid, Primary: 1, Backups: []ids.ProcessID{2}},
			{Op: store.OpCtx, SID: sid, Ctx: ctx, Stamp: 1},
		}
		for _, r := range recs {
			if err := s.Append(r); err != nil {
				s.Close()
				return 0, 0, err
			}
		}
	}
	if err := s.Close(); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	db, _, err := store.Recover(dir, "u")
	if err != nil {
		return 0, 0, err
	}
	return time.Since(start), db.Len(), nil
}

// RunRestartRejoin loads a 3-server durable cluster with sessions, then
// measures the same server rejoining twice: warm (data directory intact,
// database recovered locally, delta exchange ships only what it missed)
// and cold (directory wiped, one full copy over the network). It errors
// if the databases fail to reconverge after either rejoin.
func RunRestartRejoin(sessions, updates int) (warm, cold RejoinResult, err error) {
	dataDir, err := os.MkdirTemp("", "hafw-e13-live-")
	if err != nil {
		return
	}
	defer os.RemoveAll(dataDir)
	c, err := cluster.New(cluster.Memnet, cluster.Config{
		Backups: 1, Propagation: 25 * time.Millisecond, Service: ledgerService, DataDir: dataDir,
	})
	if err != nil {
		return
	}
	defer c.Close()
	client, err := c.NewClient(nil)
	if err != nil {
		return
	}
	defer client.Close()
	// Padded tags give each session a realistically sized context, so the
	// measured transfer gap reflects the contexts a warm rejoiner avoids
	// re-fetching, not just record framing overhead.
	pad := strings.Repeat("x", 128)
	for i := 0; i < sessions; i++ {
		s, serr := client.StartSession(c.Units()[0], nil)
		if serr != nil {
			err = fmt.Errorf("start session %d: %w", i, serr)
			return
		}
		for j := 0; j < updates; j++ {
			if serr := s.Send(ledger.Update{Tag: fmt.Sprintf("s%d-u%d-%s", i, j, pad)}); serr != nil {
				err = serr
				return
			}
		}
	}
	// Settled, not merely converged: all members agreeing on contextless
	// session records satisfies convergence before the first propagation
	// tick ever fires, and a victim stopped then would have an empty-context
	// WAL — making the warm rejoin as expensive as the cold one. The warm
	// savings being measured exist only once the propagated contexts are in
	// every database (and so in the victim's WAL).
	settle := 4 * 25 * time.Millisecond
	if err = waitSettled(c, sessions, settle, 30*time.Second); err != nil {
		return
	}

	const victim = ids.ProcessID(3)
	cycle := func(wipe bool) (RejoinResult, error) {
		c.Stop(victim)
		if err := c.WaitFormed(20 * time.Second); err != nil {
			return RejoinResult{}, fmt.Errorf("survivors did not settle: %w", err)
		}
		if wipe {
			if err := c.WipeData(victim); err != nil {
				return RejoinResult{}, err
			}
		}
		if err := c.Restart(victim); err != nil {
			return RejoinResult{}, err
		}
		// Settle again: this cycle's end state is the next cycle's baseline.
		if err := waitSettled(c, sessions, settle, 30*time.Second); err != nil {
			return RejoinResult{}, fmt.Errorf("rejoin did not reconverge: %w", err)
		}
		reg := c.Metrics(victim)
		return RejoinResult{
			RecoveredSessions: reg.Counter("recovered_sessions").Value(),
			BytesReceived:     reg.Counter("state_bytes_received").Value(),
			SessionsReceived:  reg.Counter("state_sessions_received").Value(),
		}, nil
	}
	if warm, err = cycle(false); err != nil {
		err = fmt.Errorf("warm rejoin: %w", err)
		return
	}
	if cold, err = cycle(true); err != nil {
		err = fmt.Errorf("cold rejoin: %w", err)
		return
	}
	return
}

// E13RestartRecovery is the durable-restart experiment: offline recovery
// time versus database size, and warm-versus-cold rejoin transfer cost.
func E13RestartRecovery(quick bool) (Table, error) {
	t := Table{
		ID:    "E13",
		Title: "restart recovery: local replay time and rejoin transfer",
		Claim: "a durable server recovers its unit database locally and rejoins warm — network state transfer shrinks from O(database) to O(missed changes)",
		Columns: []string{
			"scenario", "sessions", "recovered locally", "recover time", "rejoin bytes", "records shipped",
		},
	}
	sizes := []int{100, 1000, 10000}
	if quick {
		sizes = []int{100, 1000}
	}
	for _, n := range sizes {
		dur, got, err := offlineRecoverTime(n)
		if err != nil {
			return t, fmt.Errorf("offline replay %d: %w", n, err)
		}
		t.AddRow("offline WAL replay", fmt.Sprintf("%d", n), fmt.Sprintf("%d", got),
			dur.Round(time.Microsecond).String(), "—", "—")
	}

	sessions, updates := 8, 3
	if quick {
		sessions = 4
	}
	warm, cold, err := RunRestartRejoin(sessions, updates)
	if err != nil {
		return t, err
	}
	t.AddRow("warm rejoin (disk intact)", fmt.Sprintf("%d", sessions),
		fmt.Sprintf("%d", warm.RecoveredSessions), "—",
		fmt.Sprintf("%d", warm.BytesReceived), fmt.Sprintf("%d", warm.SessionsReceived))
	t.AddRow("cold rejoin (disk wiped)", fmt.Sprintf("%d", sessions),
		fmt.Sprintf("%d", cold.RecoveredSessions), "—",
		fmt.Sprintf("%d", cold.BytesReceived), fmt.Sprintf("%d", cold.SessionsReceived))
	if cold.BytesReceived > 0 {
		t.AddNote("warm rejoin received %.2fx fewer state-transfer bytes than cold (%d vs %d)",
			float64(cold.BytesReceived)/float64(warm.BytesReceived),
			warm.BytesReceived, cold.BytesReceived)
	}
	t.AddNote("offline replay is pure local I/O: no group communication, no peers needed")
	return t, nil
}
