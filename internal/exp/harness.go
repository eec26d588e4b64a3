package exp

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"hafw/internal/cluster"
	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/services/ledger"
)

// Probes the live experiments run against an in-process cluster
// (internal/cluster). Experiments on the ledger service ask which tags a
// server holds through ledgerHistory.

// ledgerService installs a fresh tag ledger on every server.
func ledgerService(ids.UnitName) core.Service { return ledger.New() }

// newLedgerCluster brings up a memnet cluster serving one ledger unit.
func newLedgerCluster(servers, backups int, prop time.Duration) (*cluster.Cluster, error) {
	return cluster.New(cluster.Memnet, cluster.Config{
		Servers: servers, Backups: backups, Propagation: prop, Service: ledgerService,
	})
}

// ledgerHistory returns the tag history server pid holds for sid, and
// whether it holds a replica at all.
func ledgerHistory(c *cluster.Cluster, pid ids.ProcessID, sid ids.SessionID) ([]string, bool) {
	led, _ := c.Service(pid, c.Units()[0]).(*ledger.Service)
	if led == nil {
		return nil, false
	}
	return led.History(sid)
}

// waitPrimaryChange blocks until the session's primary differs from old.
func waitPrimaryChange(c *cluster.Cluster, sid ids.SessionID, old ids.ProcessID, timeout time.Duration) (ids.ProcessID, error) {
	unit := c.Units()[0]
	deadline := time.Now().Add(timeout)
	for {
		if p := c.PrimaryOf(unit, sid); p != ids.Nil && p != old {
			return p, nil
		}
		if time.Now().After(deadline) {
			return ids.Nil, fmt.Errorf("exp: no primary change for session %d within %v", sid, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitSettled blocks until every live server holds exactly `sessions`
// sessions with identical database checksums AND the shared checksum has
// stopped moving for `window`. Convergence alone can be satisfied by
// identically stale databases — all members agreeing on session records
// whose contexts the periodic propagation has not flushed yet — so callers
// that need the propagated state on disk (for example, before stopping a
// server whose WAL is about to be measured) must wait for the checksum to
// hold still across at least one propagation period.
func waitSettled(c *cluster.Cluster, sessions int, window, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var ref [32]byte
	stableSince := time.Time{}
	for {
		cs, ok := convergedChecksum(c, sessions)
		switch {
		case !ok:
			stableSince = time.Time{}
		case stableSince.IsZero() || cs != ref:
			ref, stableSince = cs, time.Now()
		case time.Since(stableSince) >= window:
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("exp: databases did not settle at %d sessions within %v:\n%s",
				sessions, timeout, stateDump(c))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// convergedChecksum reports whether every live server holds exactly
// `sessions` sessions with identical database checksums, and returns the
// shared checksum when they do.
func convergedChecksum(c *cluster.Cluster, sessions int) ([32]byte, bool) {
	unit := c.Units()[0]
	var ref [32]byte
	first := true
	for _, pid := range c.Live() {
		srv := c.Server(pid)
		if srv == nil || srv.DBSessions(unit) != sessions {
			return ref, false
		}
		cs := srv.DBChecksum(unit)
		if first {
			ref, first = cs, false
		} else if cs != ref {
			return ref, false
		}
	}
	return ref, !first
}

// stateDump renders every live server's per-session view, for convergence
// failure messages.
func stateDump(c *cluster.Cluster) string {
	unit := c.Units()[0]
	live := c.Live()
	var b strings.Builder
	for _, pid := range c.Servers() {
		srv := c.Server(pid)
		if srv == nil || !slices.Contains(live, pid) {
			fmt.Fprintf(&b, "p%d: down\n", pid)
			continue
		}
		fmt.Fprintf(&b, "p%d: members=%v", pid, srv.GroupMembers(core.ContentGroup(unit)))
		for _, s := range srv.DBSnapshot(unit).Sessions {
			fmt.Fprintf(&b, " [sid=%d prim=%d back=%v stamp=%d]", s.ID, s.Primary, s.Backups, s.Stamp)
		}
		b.WriteString("\n")
	}
	return b.String()
}
