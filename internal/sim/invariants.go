package sim

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"hafw/internal/ids"
	"hafw/internal/riskmodel"
)

// The invariant checkers make the paper's §4 risk scenarios executable:
// dual primaries (one primary per session per view), lost acked updates
// (an acked request survives any tolerated failure), and context-frontier
// regression (a live replica's propagated-context stamp never moves
// backwards). Each violation is stamped with its virtual time, so a
// failing seed replays to the same timestamps.

// Violation is one invariant breach observed during a run.
type Violation struct {
	// At is the virtual offset from run start at which the breach was
	// observed.
	At time.Duration
	// Kind classifies the breach: "dual-primary", "frontier-regress",
	// "lost-acked-update", "audit-failed", or "harness".
	Kind string
	// Detail says what happened, naming nodes, sessions, and views.
	Detail string
}

// RiskSummary places the run next to the paper's closed-form predictions
// for the same configuration (Section 4 / riskmodel).
type RiskSummary struct {
	// Q is the steady-state per-server unavailability MTTR/(MTTF+MTTR).
	Q float64
	// PTotalLoss is q^R: all replicas down at once.
	PTotalLoss float64
	// PLostUpdate is the probability a session group dies within one
	// propagation period.
	PLostUpdate float64
	// ExpectedDuplicates is the mean duplicate-response window on
	// takeover, in responses.
	ExpectedDuplicates float64
	// MTTF and MTTR echo the churn parameters the summary was computed
	// from (zero when the schedule has no churn entry).
	MTTF, MTTR time.Duration
}

// Report is the outcome of one simulated run.
type Report struct {
	// Config echoes the run configuration (with defaults resolved).
	Config Config
	// Events is how many concrete chaos events the run injected.
	Events int
	// Samples is how many invariant sweeps the sampler completed.
	Samples int
	// Sent and Acked count workload updates issued and acked across all
	// clients; Duplicates counts extra acks for already-acked tags.
	Sent, Acked, Duplicates int
	// Lost counts acked tags the configuration guaranteed would survive
	// but the healed service no longer holds; only these are violations.
	Lost int
	// LostAnomalous counts acked tags lost to partition-era divergence
	// (one branch of a diverged session dropped at merge) — the paper's
	// accepted anomaly, measured but not a violation.
	LostAnomalous int
	// LostBeyondTolerance counts acked tags lost to failure bursts the
	// configuration never claimed to survive: more than B servers down
	// within one propagation window of the ack, or a total outage without
	// WAL. This is the probability mass the §4 risk model prices.
	LostBeyondTolerance int
	// Violations lists every breach in observation order.
	Violations []Violation
	// Risk is the closed-form prediction for this configuration (set by
	// Run; zero when replaying a raw event list).
	Risk RiskSummary
}

// Failed reports whether the run breached any invariant.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

type stampKey struct {
	pid  ids.ProcessID
	unit string
	sess string
}

// invariants is the run-long checker state.
type invariants struct {
	c *Cluster

	mu         sync.Mutex
	violations []Violation
	samples    int
	// stamps tracks each live replica's last seen context stamp per
	// session. Entries are dropped when the session leaves the replica
	// (or the node restarts): the monotonicity contract is per continuous
	// residence, which is what state exchange must preserve.
	stamps map[stampKey]uint64
}

func newInvariants(c *Cluster) *invariants {
	return &invariants{c: c, stamps: make(map[stampKey]uint64)}
}

func (v *invariants) report(at time.Duration, kind, detail string) {
	v.mu.Lock()
	v.violations = append(v.violations, Violation{At: at, Kind: kind, Detail: detail})
	v.mu.Unlock()
}

// nodeRestarted clears the frontier baseline for a node: a recovered
// process legitimately resumes from its last durable stamp.
func (v *invariants) nodeRestarted(pid ids.ProcessID) {
	v.mu.Lock()
	for k := range v.stamps {
		if k.pid == pid {
			delete(v.stamps, k)
		}
	}
	v.mu.Unlock()
}

// start schedules the periodic sampler in virtual time. Samples run
// inline on the scheduler goroutine and only read server state.
func (v *invariants) start() {
	var tick func()
	tick = func() {
		select {
		case <-v.c.stopC:
			return
		default:
		}
		v.sample()
		v.c.base.AfterFunc(v.c.cfg.SampleEvery, tick)
	}
	v.c.base.AfterFunc(v.c.cfg.SampleEvery, tick)
}

// sample sweeps every live server's status once: collects primary claims
// keyed by (unit, session), checks stamp monotonicity, and flags any
// session two servers both claim to lead under the same content-group
// view. Two primaries under different views are the paper's expected
// partition behavior; two under the same view break the allocation
// determinism the framework is built on.
func (v *invariants) sample() {
	now := v.c.elapsed()
	type claim struct {
		pid  ids.ProcessID
		view string
	}
	claims := make(map[string][]claim)
	// Post-heal convergence tracking: the partition-anomaly episode stays
	// open until every live server reports the simulated unit synced, its
	// state exchange closed, and the same view.
	checkConverged := v.c.healIsPending()
	convOK, convLive := true, 0
	convViews := make(map[string]bool)
	v.mu.Lock()
	v.samples++
	for _, pid := range v.c.h.Servers() {
		srv := v.c.h.Server(pid)
		if srv == nil {
			continue
		}
		st := srv.Status()
		if checkConverged {
			convLive++
			found := false
			for _, u := range st.Units {
				if u.Unit == string(v.c.unit) {
					found = true
					if u.Synced && !u.ExchangeOpen {
						convViews[u.View] = true
					} else {
						convOK = false
					}
				}
			}
			if !found {
				convOK = false
			}
		}
		// Only servers whose unit database is synced and whose state
		// exchange has closed carry authoritative roles: during the
		// exchange that follows a view change, stale primaryships linger
		// by design until the deterministic allocation re-runs over the
		// merged database.
		unitViews := make(map[string]string, len(st.Units))
		for _, u := range st.Units {
			if u.Synced && !u.ExchangeOpen {
				unitViews[u.Unit] = u.View
			}
		}
		seen := make(map[stampKey]bool, len(st.Sessions))
		for _, sess := range st.Sessions {
			key := stampKey{pid: pid, unit: sess.Unit, sess: sess.Session}
			seen[key] = true
			if old, ok := v.stamps[key]; ok && sess.Stamp < old {
				v.violations = append(v.violations, Violation{
					At:   now,
					Kind: "frontier-regress",
					Detail: fmt.Sprintf("node %d session %s/%s stamp %d after %d",
						pid, sess.Unit, sess.Session, sess.Stamp, old),
				})
			}
			v.stamps[key] = sess.Stamp
			if sess.Role == "primary" {
				if view, ok := unitViews[sess.Unit]; ok {
					k := sess.Unit + "/" + sess.Session
					claims[k] = append(claims[k], claim{pid: pid, view: view})
				}
			}
		}
		for k := range v.stamps {
			if k.pid == pid && !seen[k] {
				delete(v.stamps, k)
			}
		}
	}
	keys := make([]string, 0, len(claims))
	for k := range claims {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		cs := claims[k]
		if len(cs) < 2 {
			continue
		}
		byView := make(map[string][]ids.ProcessID)
		for _, c := range cs {
			byView[c.view] = append(byView[c.view], c.pid)
		}
		views := make([]string, 0, len(byView))
		for view := range byView {
			views = append(views, view)
		}
		sort.Strings(views)
		for _, view := range views {
			if len(byView[view]) > 1 && view != "" {
				v.violations = append(v.violations, Violation{
					At:   now,
					Kind: "dual-primary",
					Detail: fmt.Sprintf("session %s led by nodes %v in the same view %s",
						k, byView[view], view),
				})
			}
		}
	}
	v.mu.Unlock()
	if checkConverged && convLive > 0 && convOK && len(convViews) == 1 {
		v.c.converged()
	}
}

// finish runs the end-of-run durability audit and assembles the report.
// Each lost tag is classified against the run's fault timelines: only
// losses the configuration guaranteed against become violations; the rest
// are measured as anomaly or beyond-tolerance counts for the risk model.
func (v *invariants) finish(events []Event) *Report {
	now := v.c.elapsed()
	rep := &Report{Config: v.c.cfg, Events: len(events)}
	for _, cl := range v.c.clients {
		lost, acked, dups, note := cl.audit()
		cl.mu.Lock()
		rep.Sent += cl.sent
		cl.mu.Unlock()
		rep.Acked += acked
		rep.Duplicates += dups
		var hard []string
		for _, lt := range lost {
			switch v.c.classifyLoss(lt.at) {
			case lossAnomalous:
				rep.LostAnomalous++
			case lossBeyondTolerance:
				rep.LostBeyondTolerance++
			default:
				rep.Lost++
				hard = append(hard, lt.tag)
			}
		}
		if note != "" && acked == 0 {
			v.report(now, "audit-failed", fmt.Sprintf("client %d: %s", cl.id, note))
			continue
		}
		if len(hard) > 0 {
			show := hard
			if len(show) > 5 {
				show = show[:5]
			}
			detail := fmt.Sprintf("client %d lost %d guaranteed acked tags (first: %v)", cl.id, len(hard), show)
			if note != "" {
				detail += "; " + note
			}
			v.report(now, "lost-acked-update", detail)
		}
	}
	v.mu.Lock()
	rep.Samples = v.samples
	rep.Violations = append([]Violation(nil), v.violations...)
	v.mu.Unlock()
	return rep
}

// RiskFor computes the closed-form §4 predictions for a configuration and
// chaos schedule: the churn entry supplies MTTF/MTTR, the cluster config
// supplies R, B, T, and the workload rate.
func RiskFor(cfg Config, sched *Schedule) RiskSummary {
	cfg = cfg.withDefaults()
	var mttf, mttr time.Duration
	for _, e := range sched.Entries {
		if e.Kind == KindChurn {
			mttf = time.Duration(e.MTTFMS) * time.Millisecond
			mttr = time.Duration(e.MTTRMS) * time.Millisecond
			break
		}
	}
	if mttf <= 0 || mttr <= 0 {
		return RiskSummary{}
	}
	q := riskmodel.ServerUnavailability(mttf.Seconds(), mttr.Seconds())
	p := riskmodel.Params{
		MTTF:         mttf.Seconds(),
		MTTR:         mttr.Seconds(),
		R:            cfg.Nodes,
		B:            cfg.Backups,
		T:            cfg.Propagation.Seconds(),
		UpdateRate:   1 / cfg.UpdateEvery.Seconds(),
		ResponseRate: 1 / cfg.UpdateEvery.Seconds(),
	}
	return RiskSummary{
		Q:                  q,
		PTotalLoss:         riskmodel.PTotalLoss(q, cfg.Nodes),
		PLostUpdate:        riskmodel.PLostUpdate(p.MTTF, p.T, p.B),
		ExpectedDuplicates: riskmodel.ExpectedDuplicates(p),
		MTTF:               mttf,
		MTTR:               mttr,
	}
}
