package sim

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"hafw/internal/ids"
)

// healthySchedule is a chaos script the framework must tolerate with the
// tested configuration (B=1, WAL): bounded churn that never takes two
// servers down at once, one link cut for longer than failure detection
// and restored, a clean two-sided partition with heal, clock skew on one
// node, and a rolling restart of every server after the heal. With seed 7
// on five servers the churn stays clear of the cut and the rolling
// restart.
func healthySchedule() *Schedule {
	return &Schedule{Entries: []Entry{
		{Kind: KindChurn, FromMS: 30_000, MTTFMS: 120_000, MTTRMS: 15_000, MaxDown: 1},
		{Kind: KindCutLink, AtMS: 12_000, A: 1, B: 4},
		{Kind: KindCutLink, AtMS: 25_000, A: 1, B: 4, Up: true},
		{Kind: KindSkew, AtMS: 40_000, Node: 2, OffsetMS: 30_000},
		{Kind: KindPartition, AtMS: 70_000, Sides: [][]int{{1, 2}, {3, 4, 5}}},
		{Kind: KindHeal, AtMS: 100_000},
		{Kind: KindRollingRestart, FromMS: 102_000, GapMS: 5_000, DownMS: 3_000},
	}}
}

func TestClusterSurvivesBoundedChurn(t *testing.T) {
	cfg := Config{
		Seed:    7,
		Nodes:   5,
		Clients: 3,
		Backups: 1,
		Virtual: 4 * time.Minute,
		WAL:     true,
		DataDir: t.TempDir(),
	}.withDefaults()
	events := Expand(cfg, healthySchedule())
	c, err := newCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.h.Close()
	rep, err := c.run(events)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("invariant violations under tolerated faults:\n%s", FormatViolations(rep.Violations))
	}
	if rep.Acked == 0 {
		t.Fatal("workload made no progress: zero acked updates")
	}
	if rep.Samples == 0 {
		t.Fatal("invariant sampler never ran")
	}
	t.Logf("events=%d samples=%d sent=%d acked=%d dups=%d",
		rep.Events, rep.Samples, rep.Sent, rep.Acked, rep.Duplicates)

	// Each cut and each rolling restart went through the harness: the cut
	// opened an anomaly episode that closed once the restored link let
	// the views re-merge, well before the partition; every server was
	// down exactly for its rolling-restart window.
	rolled := 0
	for _, ev := range events {
		switch {
		case ev.Kind == KindCutLink && !ev.Up:
			if end, ok := closedAt(c.partitions, ev.At); !ok || end >= 70*time.Second {
				t.Errorf("%v: no anomaly episode from the cut closed before the partition: %+v", ev, c.partitions)
			}
		case ev.Kind == KindRestart && ev.At >= 102*time.Second && ev.At < 127*time.Second:
			rolled++
			if end, ok := closedAt(c.nodeDowns, ev.At); !ok || end != ev.At+ev.Down {
				t.Errorf("%v: no outage [%v, %v]: %+v", ev, ev.At, ev.At+ev.Down, c.nodeDowns)
			}
		}
	}
	if rolled != cfg.Nodes {
		t.Errorf("rolling restart expanded to %d restarts, want %d", rolled, cfg.Nodes)
	}
	if !c.h.Net.Connected(ids.ProcessEndpoint(1), ids.ProcessEndpoint(4)) {
		t.Error("link 1-4 still cut at the end of the run")
	}
}

// closedAt returns when the closed episode that started at start ended.
func closedAt(ivls []ivl, start time.Duration) (time.Duration, bool) {
	for _, iv := range ivls {
		if iv.start == start && !iv.open {
			return iv.end, true
		}
	}
	return 0, false
}

// totalWipe restarts every server at the same virtual instant: with B=0
// every session group dies, and without WAL every database dies too.
func totalWipe() *Schedule {
	return &Schedule{Entries: []Entry{
		{Kind: KindRestart, AtMS: 60_000, Node: 1, DownMS: 10_000},
		{Kind: KindRestart, AtMS: 60_000, Node: 2, DownMS: 10_000},
		{Kind: KindRestart, AtMS: 60_000, Node: 3, DownMS: 10_000},
	}}
}

func TestClusterCountsLossBeyondTolerance(t *testing.T) {
	// B=0, no WAL, propagation slower than the outage: the wipe destroys
	// every copy of the session context, so every acked tag is lost. The
	// configuration never promised to survive a 3-of-3 outage — the audit
	// must count the loss as beyond tolerance (the §4 probability mass),
	// not report an invariant violation.
	cfg := Config{
		Seed:        11,
		Nodes:       3,
		Clients:     2,
		Backups:     0,
		Propagation: 2 * time.Minute,
		Virtual:     5 * time.Minute,
	}
	rep, err := Run(cfg, totalWipe())
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostBeyondTolerance == 0 {
		t.Fatalf("expected beyond-tolerance losses after a total wipe without WAL; report: acked=%d lost=%d violations=%v",
			rep.Acked, rep.Lost, rep.Violations)
	}
	for _, v := range rep.Violations {
		if v.Kind == "lost-acked-update" {
			t.Fatalf("beyond-tolerance loss misreported as a violation:\n%s",
				FormatViolations(rep.Violations))
		}
	}
}

func TestWALRestartPreservesPropagatedUpdates(t *testing.T) {
	// The same total wipe, but with fast propagation and durable unit
	// databases: everything propagated before the outage is recovered
	// from the WAL, so the bulk of the acked tags must survive and none
	// of the guaranteed ones may be lost. Only the un-propagated window
	// right before the wipe (within one propagation period) is at risk —
	// exactly riskmodel.PLostUpdate's exposure.
	cfg := Config{
		Seed:    11,
		Nodes:   3,
		Clients: 2,
		Backups: 0,
		Virtual: 5 * time.Minute,
		WAL:     true,
		DataDir: t.TempDir(),
	}
	rep, err := Run(cfg, totalWipe())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("violations under WAL total-wipe recovery:\n%s", FormatViolations(rep.Violations))
	}
	if rep.Acked < 20 {
		t.Fatalf("workload made too little progress: acked=%d", rep.Acked)
	}
	if rep.LostBeyondTolerance > rep.Acked/2 {
		t.Fatalf("WAL recovery lost the bulk of acked tags: lost=%d of acked=%d",
			rep.LostBeyondTolerance, rep.Acked)
	}
}

func TestClassifyLoss(t *testing.T) {
	c := &Cluster{cfg: Config{Nodes: 3, Backups: 0, Propagation: 2 * time.Second}.withDefaults()}
	c.partitions = []ivl{{start: 70 * time.Second, end: 110 * time.Second}}
	// One server down 150s-160s; with B=0 that alone exceeds tolerance.
	// The exposure sweep widens the outage by the recovery margin
	// (FDTimeout 10s + RoundTimeout 4s + Propagation 2s = 16s → 176s).
	c.nodeDowns = []ivl{{start: 150 * time.Second, end: 160 * time.Second}}
	c.allDowns = []ivl{{start: 150 * time.Second, end: 160 * time.Second}}
	cases := []struct {
		at   time.Duration
		wal  bool
		want int
	}{
		// Acked just before the cut: last propagation may not have copied
		// it to the far side, and the merge can pick that side.
		{at: 65 * time.Second, want: lossAnomalous},
		{at: 90 * time.Second, want: lossAnomalous},
		// Acked just after the heal: a stale primary can still ack until
		// the merge exchange demotes it (within the recovery margin past
		// 110s), and the merge may discard its side.
		{at: 120 * time.Second, want: lossAnomalous},
		// Acked just before or during a >B outage: only the dead session
		// group held it.
		{at: 145 * time.Second, want: lossBeyondTolerance},
		{at: 155 * time.Second, want: lossBeyondTolerance},
		// Acked while the revived server is still recovering (within the
		// margin past 160s): no second copy existed yet.
		{at: 170 * time.Second, wal: true, want: lossBeyondTolerance},
		// Acked long before a total outage: without WAL the databases die
		// with the servers; with WAL they recover.
		{at: 30 * time.Second, want: lossBeyondTolerance},
		{at: 30 * time.Second, wal: true, want: lossGuaranteed},
		// Acked after the outage and its recovery margin: fully guaranteed.
		{at: 180 * time.Second, wal: true, want: lossGuaranteed},
	}
	for i, tc := range cases {
		c.cfg.WAL = tc.wal
		if got := c.classifyLoss(tc.at); got != tc.want {
			t.Errorf("case %d: classifyLoss(%v, wal=%v) = %d, want %d", i, tc.at, tc.wal, got, tc.want)
		}
	}
}

func TestFastRestartOfPrimaryLosesNothing(t *testing.T) {
	// A restart shorter than FDTimeout is invisible to the failure
	// detector: no member ever leaves the process view, so the rejoining
	// incarnation is only detectable through its broken view continuity.
	// Two framework bugs hid here — peers not treating the reborn process
	// as a joiner (so no state exchange ran and its recovered sessions
	// stayed headless forever), and the exchange shipping only the last
	// propagated context (dropping the acked tail a live backup held).
	// hasim -seed 11 with a lone restart of node 1 found both.
	cfg := Config{
		Seed:    11,
		Nodes:   5,
		Clients: 2,
		Backups: 1,
		Virtual: 5 * time.Minute,
		WAL:     true,
		DataDir: t.TempDir(),
	}.withDefaults()
	down := 4687 * time.Millisecond
	if fd := cfg.timers().FDTimeout; down >= fd {
		t.Fatalf("restart downtime %v must stay below FDTimeout %v for this scenario", down, fd)
	}
	rep, err := Run(cfg, &Schedule{Entries: []Entry{
		{Kind: KindRestart, AtMS: 141_949, Node: 1, DownMS: down.Milliseconds()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("violations after a sub-FDTimeout restart:\n%s", FormatViolations(rep.Violations))
	}
	if rep.Lost > 0 {
		t.Fatalf("lost %d acked tags across a tolerated single restart", rep.Lost)
	}
	if rep.Acked == 0 {
		t.Fatal("workload made no progress")
	}
}

func TestExpandIsDeterministic(t *testing.T) {
	sched := healthySchedule()
	cfg := Config{Seed: 42, Nodes: 50, Virtual: 5 * time.Minute}.withDefaults()
	horizon := cfg.Virtual - cfg.tail()
	base := Trace(cfg, sched.Expand(rand.New(rand.NewSource(cfg.Seed)), cfg.Nodes, horizon))
	for i := 0; i < 50; i++ {
		got := Trace(cfg, sched.Expand(rand.New(rand.NewSource(cfg.Seed)), cfg.Nodes, horizon))
		if !bytes.Equal(base, got) {
			t.Fatalf("run %d: trace diverged from first expansion", i)
		}
	}
	other := Trace(cfg, sched.Expand(rand.New(rand.NewSource(cfg.Seed+1)), cfg.Nodes, horizon))
	if bytes.Equal(base, other) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestRunReplaysDeterministically(t *testing.T) {
	// Two full runs from one seed must inject byte-identical fault
	// traces and agree on the audit outcome.
	cfg := Config{Seed: 3, Nodes: 3, Clients: 1, Backups: 1, Virtual: 3 * time.Minute}
	sched := &Schedule{Entries: []Entry{
		{Kind: KindChurn, FromMS: 20_000, MTTFMS: 60_000, MTTRMS: 10_000, MaxDown: 1},
	}}
	run := func() ([]byte, bool) {
		c := cfg.withDefaults()
		events := Expand(c, sched)
		rep, err := RunEvents(c, events)
		if err != nil {
			t.Fatal(err)
		}
		return Trace(c, events), rep.Failed()
	}
	t1, f1 := run()
	t2, f2 := run()
	if !bytes.Equal(t1, t2) {
		t.Fatal("same seed produced different fault traces")
	}
	if f1 != f2 {
		t.Fatalf("same seed disagreed on outcome: %v vs %v", f1, f2)
	}
}

func TestShrinkFindsMinimalSchedule(t *testing.T) {
	// Synthetic property: the failure reproduces whenever the two
	// "guilty" events both survive. Shrink must isolate exactly them.
	events := make([]Event, 20)
	for i := range events {
		events[i] = Event{At: time.Duration(i) * time.Second, Kind: KindCrash, Node: i + 1}
	}
	guiltyA, guiltyB := events[3].Node, events[17].Node
	prop := func(sub []Event) bool {
		hasA, hasB := false, false
		for _, e := range sub {
			if e.Node == guiltyA {
				hasA = true
			}
			if e.Node == guiltyB {
				hasB = true
			}
		}
		return hasA && hasB
	}
	minimal := Shrink(events, prop, 0)
	if len(minimal) != 2 || minimal[0].Node != guiltyA || minimal[1].Node != guiltyB {
		t.Fatalf("shrunk to %v, want exactly the two guilty events", minimal)
	}
}
