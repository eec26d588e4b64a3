package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/services/ledger"
	"hafw/internal/store"
	"hafw/internal/transport/memnet"
)

// The cluster's protocol timescales. They are deliberately realistic
// (seconds, not the milliseconds the wall-clock tests squeeze into) —
// virtual time makes slow timeouts free, and realistic timescales exercise
// the same timeout arithmetic production would run.
const (
	simFDInterval   = 2 * time.Second
	simFDTimeout    = 10 * time.Second
	simRoundTimeout = 4 * time.Second
	simAckInterval  = 2 * time.Second
	simNetLatency   = 2 * time.Millisecond
	simNetJitter    = 3 * time.Millisecond
	simCallTimeout  = 4 * time.Second
	simCallRetries  = 5
)

// simTail is the chaos-free recovery window at the end of a run, during
// which all servers are revived, the network heals, and the final
// durability audit runs. A run spends at most half its time in it.
const simTail = 90 * time.Second

// Config parameterizes one simulated cluster run.
type Config struct {
	// Seed drives every random choice of the run: chaos expansion, network
	// jitter and loss, workload pacing. Zero selects 1.
	Seed int64
	// Nodes is the server count.
	Nodes int
	// Clients is the number of concurrent client sessions.
	Clients int
	// Backups is the paper's B for the simulated unit.
	Backups int
	// Propagation is the paper's T.
	Propagation time.Duration
	// Virtual is the total virtual duration of the run.
	Virtual time.Duration
	// WAL enables durable unit databases: restarted servers recover from
	// their per-process data directory (the warm-restart path).
	WAL bool
	// DataDir is where WAL data lives; required when WAL is set.
	DataDir string
	// Loss is the network's random message-loss probability.
	Loss float64
	// UpdateEvery is the mean pause between one client's context updates.
	// Zero selects 2s.
	UpdateEvery time.Duration
	// SampleEvery is the invariant sampler's period. Zero selects 1s.
	SampleEvery time.Duration
	// FDInterval, FDTimeout, and AckInterval override the cluster's
	// protocol timescales; zero selects the sim defaults (2s, 10s, 2s).
	// Heartbeat traffic is quadratic in Nodes, so large simulations
	// stretch FDInterval/FDTimeout the way production deployments do.
	FDInterval, FDTimeout, AckInterval time.Duration
}

// tail is the run's recovery window: simTail, clamped to Virtual/2.
func (cfg Config) tail() time.Duration { return min(simTail, cfg.Virtual/2) }

func (cfg Config) withDefaults() Config {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 5
	}
	if cfg.Clients <= 0 {
		cfg.Clients = cfg.Nodes / 2
		if cfg.Clients < 1 {
			cfg.Clients = 1
		}
	}
	if cfg.Propagation <= 0 {
		cfg.Propagation = 2 * time.Second
	}
	if cfg.Virtual <= 0 {
		cfg.Virtual = 5 * time.Minute
	}
	if cfg.UpdateEvery <= 0 {
		cfg.UpdateEvery = 2 * time.Second
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = time.Second
	}
	if cfg.FDInterval <= 0 {
		cfg.FDInterval = simFDInterval
	}
	if cfg.FDTimeout <= 0 {
		cfg.FDTimeout = simFDTimeout
	}
	if cfg.AckInterval <= 0 {
		cfg.AckInterval = simAckInterval
	}
	return cfg
}

// simUnit is the single content unit every simulated server hosts.
const simUnit ids.UnitName = "simledger"

// node is one simulated server and its private skewable clock.
type node struct {
	pid ids.ProcessID
	clk *Clock

	mu   sync.Mutex
	srv  *core.Server
	down bool
}

// Cluster wires Nodes framework servers, Clients workload drivers, the
// chaos applier, and the invariant sampler onto one Scheduler. It is the
// virtual-time sibling of cluster.Cluster: same server bring-up, same WAL
// warm-restart path, but every timeout, latency, and pause elapses on the
// simulated clock.
type Cluster struct {
	cfg   Config
	sched *Scheduler
	net   *memnet.Network
	base  *Clock // unskewed: network, clients, chaos, sampler
	world []ids.ProcessID
	nodes map[ids.ProcessID]*node
	inv   *invariants

	stopOnce sync.Once
	stopC    chan struct{} // closed in virtual time to end the workload
	wg       sync.WaitGroup

	clients []*simClient

	// Fault timelines, recorded as the run unfolds and consulted by the
	// end-of-run audit to scope the durability guarantee the way §4 does:
	// an acked update is only promised to survive failures the
	// configuration tolerates. partitions spans link-cut episodes (until
	// post-heal re-convergence, observed by the sampler); nodeDowns holds
	// one interval per server outage (the exposure sweep widens each by a
	// recovery margin, because a revived process contributes no surviving
	// copy until re-drafting and state exchange complete); allDowns spans
	// total outages.
	tlMu        sync.Mutex
	downCount   int
	activeCuts  int
	partActive  bool
	healPending bool
	healSince   time.Duration
	partitions  []ivl
	nodeDowns   []ivl
	openDown    map[ids.ProcessID]int
	allDowns    []ivl
}

// minConvergeDelay is how long after a heal (or clock jump) the sampler
// waits before it may declare the membership re-converged: the fault's
// effect on the failure detector needs at least a detection timeout and
// an agreement round to play out, and sampling before that would close
// the anomaly episode while every server still reports the old stable
// state.
func (c *Cluster) minConvergeDelay() time.Duration {
	return c.cfg.FDTimeout + simRoundTimeout
}

// ivl is one half-open fault episode; end is meaningful once closed.
type ivl struct {
	start, end time.Duration
	open       bool
}

// noteDown/noteUp maintain the outage timelines around server state
// changes. Callers hold no locks.
func (c *Cluster) noteDown(pid ids.ProcessID) {
	now := c.elapsed()
	c.tlMu.Lock()
	c.downCount++
	c.openDown[pid] = len(c.nodeDowns)
	c.nodeDowns = append(c.nodeDowns, ivl{start: now, open: true})
	if c.downCount == c.cfg.Nodes {
		c.allDowns = append(c.allDowns, ivl{start: now, open: true})
	}
	c.tlMu.Unlock()
}

func (c *Cluster) noteUp(pid ids.ProcessID) {
	now := c.elapsed()
	c.tlMu.Lock()
	if c.downCount == c.cfg.Nodes {
		closeLast(c.allDowns, now)
	}
	c.downCount--
	if i, ok := c.openDown[pid]; ok {
		c.nodeDowns[i].open = false
		c.nodeDowns[i].end = now
		delete(c.openDown, pid)
	}
	c.tlMu.Unlock()
}

func closeLast(ivls []ivl, now time.Duration) {
	if n := len(ivls); n > 0 && ivls[n-1].open {
		ivls[n-1].open = false
		ivls[n-1].end = now
	}
}

// openPartitionLocked ensures a partition episode is open; a heal that is
// still awaiting convergence keeps its episode, so re-cutting just clears
// the pending flag.
func (c *Cluster) openPartitionLocked() {
	c.healPending = false
	if n := len(c.partitions); n > 0 && c.partitions[n-1].open {
		return
	}
	c.partitions = append(c.partitions, ivl{start: c.elapsed(), open: true})
}

// notePartition opens a partition episode; noteHeal and noteCut(true) mark
// it pending convergence, and the invariant sampler closes it once every
// live server reports a synced, exchange-closed, identical unit view
// again. The episode stays open (conservatively anomalous) until then:
// after a heal, a stale-branch primary can keep acking updates that the
// eventual database merge will drop, so a fixed grace period is not
// enough.
func (c *Cluster) notePartition() {
	c.tlMu.Lock()
	c.partActive = true
	c.openPartitionLocked()
	c.tlMu.Unlock()
}

func (c *Cluster) noteHeal() {
	c.tlMu.Lock()
	c.partActive = false
	c.activeCuts = 0
	if n := len(c.partitions); n > 0 && c.partitions[n-1].open {
		c.healPending = true
		c.healSince = c.elapsed()
	}
	c.tlMu.Unlock()
}

func (c *Cluster) noteCut(up bool) {
	c.tlMu.Lock()
	if up {
		if c.activeCuts > 0 {
			c.activeCuts--
		}
		if c.activeCuts == 0 && !c.partActive {
			if n := len(c.partitions); n > 0 && c.partitions[n-1].open {
				c.healPending = true
				c.healSince = c.elapsed()
			}
		}
	} else {
		c.activeCuts++
		c.openPartitionLocked()
	}
	c.tlMu.Unlock()
}

// noteSkewTransient opens an anomaly episode around a clock jump: a
// skewed failure detector momentarily sees every peer's last heartbeat as
// stale and falsely suspects them, splitting the membership exactly like
// a short asymmetric partition (the paper's incorrect-suspicion anomaly).
// The sampler closes the episode once the views re-merge.
func (c *Cluster) noteSkewTransient() {
	c.tlMu.Lock()
	c.openPartitionLocked()
	if c.activeCuts == 0 && !c.partActive {
		c.healPending = true
		c.healSince = c.elapsed()
	}
	c.tlMu.Unlock()
}

// converged is called by the sampler when the healed cluster has settled
// on one synced view everywhere: the pending partition episode ends here.
func (c *Cluster) converged() {
	now := c.elapsed()
	c.tlMu.Lock()
	if c.healPending {
		closeLast(c.partitions, now)
		c.healPending = false
	}
	c.tlMu.Unlock()
}

// healIsPending reports whether the sampler should probe for membership
// re-convergence: an episode is pending and its settle delay has passed.
func (c *Cluster) healIsPending() bool {
	now := c.elapsed()
	c.tlMu.Lock()
	defer c.tlMu.Unlock()
	return c.healPending && now >= c.healSince+c.minConvergeDelay()
}

// Loss classes for acked-but-missing tags, from the audit's point of view.
const (
	// lossGuaranteed: the configuration promised this tag would survive —
	// losing it is an invariant violation.
	lossGuaranteed = iota
	// lossAnomalous: acked in (or within one propagation window before) a
	// partition episode; the branch merge may drop it. The paper's
	// accepted partition anomaly.
	lossAnomalous
	// lossBeyondTolerance: more than B servers (or, without WAL, all of
	// them) failed close enough to the ack that no surviving copy was
	// required to exist. This is the probability mass §4's risk model
	// quantifies, not a bug.
	lossBeyondTolerance
)

// classifyLoss decides what losing a tag acked at virtual offset `at`
// means. The at-risk window extends one propagation period (plus ack and
// call slack) past the ack: until propagation has copied the context to
// every database, only the B+1 session members hold it.
func (c *Cluster) classifyLoss(at time.Duration) int {
	window := c.cfg.Propagation + c.cfg.AckInterval + simCallTimeout
	from, to := at-time.Second, at+window
	c.tlMu.Lock()
	defer c.tlMu.Unlock()
	// A partition's anomaly outlives its physical heal: diverged primaries
	// keep acking until the merge exchange demotes one of them, so the
	// interval extends by the same recovery margin outages get.
	margin := c.minConvergeDelay() + c.cfg.Propagation
	for _, p := range c.partitions {
		end := p.end
		if !p.open {
			end += margin
		} else {
			end = to
		}
		if p.start <= to && end >= from {
			return lossAnomalous
		}
	}
	if c.exposedLocked(from, to) {
		return lossBeyondTolerance
	}
	if !c.cfg.WAL {
		// Without durable databases, a later total outage wipes even
		// fully-propagated context.
		for _, a := range c.allDowns {
			if a.open || a.end >= at {
				return lossBeyondTolerance
			}
		}
	}
	return lossGuaranteed
}

// exposedLocked reports whether more than B servers were simultaneously
// unavailable-or-recovering at some instant in [from, to]. Each recorded
// outage is widened past its revival by a recovery margin — detection,
// agreement, and one propagation period — because a freshly restarted
// process holds no session state until re-drafting and state exchange
// complete. Two session members crashing back to back (the second before
// the first has re-integrated) therefore counts as one >B burst, which is
// exactly the sequential failure pattern the §4 lost-update probability
// prices. Caller holds tlMu.
func (c *Cluster) exposedLocked(from, to time.Duration) bool {
	margin := c.minConvergeDelay() + c.cfg.Propagation
	type pt struct {
		at time.Duration
		d  int
	}
	var pts []pt
	for _, iv := range c.nodeDowns {
		end := iv.end
		if iv.open {
			end = to // still down: the outage reaches the audit horizon
		}
		end += margin
		if iv.start > to || end < from {
			continue
		}
		pts = append(pts, pt{max(iv.start, from), 1}, pt{min(end, to), -1})
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].at != pts[j].at {
			return pts[i].at < pts[j].at
		}
		// Opens sort before closes: outages touching at an instant still
		// count as concurrent.
		return pts[i].d > pts[j].d
	})
	depth := 0
	for _, p := range pts {
		depth += p.d
		if depth > c.cfg.Backups {
			return true
		}
	}
	return false
}

// Run executes one full simulated scenario: expand the schedule with the
// seeded PRNG, play it against a fresh cluster, and audit the paper's
// invariants throughout and at the end.
func Run(cfg Config, sched *Schedule) (*Report, error) {
	cfg = cfg.withDefaults()
	report, err := RunEvents(cfg, Expand(cfg, sched))
	if report != nil {
		report.Risk = RiskFor(cfg, sched)
	}
	return report, err
}

// Expand derives the concrete event list a run of cfg injects: the
// schedule expanded with the seeded PRNG up to the recovery tail. Both are
// deterministic, so the list matches the run exactly.
func Expand(cfg Config, sched *Schedule) []Event {
	cfg = cfg.withDefaults()
	return sched.Expand(rand.New(rand.NewSource(cfg.Seed)), cfg.Nodes, cfg.Virtual-cfg.tail())
}

// RunEvents executes a scenario from an already-expanded event list (the
// shrinker re-runs candidate sublists through this entry point).
func RunEvents(cfg Config, events []Event) (*Report, error) {
	cfg = cfg.withDefaults()
	c, err := newCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer c.close()
	return c.run(events)
}

func newCluster(cfg Config) (*Cluster, error) {
	if cfg.WAL && cfg.DataDir == "" {
		return nil, fmt.Errorf("sim: WAL requires DataDir")
	}
	sched := NewScheduler()
	base := sched.Clock()
	net := memnet.New(memnet.Config{
		Latency: simNetLatency,
		Jitter:  simNetJitter,
		Loss:    cfg.Loss,
		Seed:    cfg.Seed ^ 0x6e65747365656473, // derived, distinct from chaos stream
		Clock:   base,
	})
	c := &Cluster{
		cfg:      cfg,
		sched:    sched,
		net:      net,
		base:     base,
		nodes:    make(map[ids.ProcessID]*node),
		openDown: make(map[ids.ProcessID]int),
		stopC:    make(chan struct{}),
	}
	for i := 1; i <= cfg.Nodes; i++ {
		c.world = append(c.world, ids.ProcessID(i))
	}
	c.inv = newInvariants(c)
	for _, pid := range c.world {
		n := &node{pid: pid, clk: sched.NodeClock()}
		c.nodes[pid] = n
		if err := c.startServer(n); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// startServer attaches and starts one framework server on the node's own
// clock. It is called at cluster bring-up and from the warm-restart path;
// both run on the scheduler goroutine or before Run starts, and Start
// does not block on virtual time.
func (c *Cluster) startServer(n *node) error {
	ep, err := c.net.Attach(ids.ProcessEndpoint(n.pid))
	if err != nil {
		return err
	}
	cfg := core.Config{
		Self:      n.pid,
		Transport: ep,
		World:     c.world,
		Units: []core.UnitConfig{{
			Unit:              simUnit,
			Service:           ledger.New(),
			Backups:           c.cfg.Backups,
			PropagationPeriod: c.cfg.Propagation,
		}},
		FDInterval:   c.cfg.FDInterval,
		FDTimeout:    c.cfg.FDTimeout,
		RoundTimeout: simRoundTimeout,
		AckInterval:  c.cfg.AckInterval,
		Clock:        n.clk,
	}
	if c.cfg.WAL {
		cfg.DataDir = fmt.Sprintf("%s/p%d", c.cfg.DataDir, n.pid)
		cfg.Fsync = store.FsyncAlways
	}
	srv, err := core.NewServer(cfg)
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	n.mu.Lock()
	n.srv = srv
	n.down = false
	n.mu.Unlock()
	return nil
}

// stopServer crashes a node: the network drops its traffic and the
// process stops. Its data directory survives for the warm-restart path.
func (c *Cluster) stopServer(pid ids.ProcessID) {
	n := c.nodes[pid]
	n.mu.Lock()
	srv := n.srv
	if srv == nil || n.down {
		n.mu.Unlock()
		return
	}
	n.srv = nil
	n.down = true
	n.mu.Unlock()
	c.noteDown(pid)
	c.net.Crash(ids.ProcessEndpoint(pid))
	srv.Stop() // detaches the endpoint, so the restart can re-Attach
	c.inv.nodeRestarted(pid)
}

// restartServer brings a crashed node back: revive the endpoint and start
// a fresh server process, which recovers its unit database from disk when
// the cluster runs with WAL.
func (c *Cluster) restartServer(pid ids.ProcessID) {
	n := c.nodes[pid]
	n.mu.Lock()
	down := n.down
	n.mu.Unlock()
	if !down {
		return
	}
	c.net.Revive(ids.ProcessEndpoint(pid))
	if err := c.startServer(n); err != nil {
		c.inv.report(c.elapsed(), "harness", fmt.Sprintf("restart of node %d failed: %v", pid, err))
		return
	}
	c.noteUp(pid)
}

// server returns the live server for pid, or nil while it is down.
func (n *node) server() *core.Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil
	}
	return n.srv
}

func (c *Cluster) elapsed() time.Duration { return c.sched.Elapsed() }

// apply fires one chaos event. It runs inline on the scheduler goroutine.
func (c *Cluster) apply(ev Event) {
	switch ev.Kind {
	case KindCrash:
		c.stopServer(ids.ProcessID(ev.Node))
	case KindRestart:
		pid := ids.ProcessID(ev.Node)
		c.stopServer(pid)
		c.base.AfterFunc(ev.Down, func() { c.restartServer(pid) })
	case KindPartition:
		sides := make([][]ids.EndpointID, 0, len(ev.Sides))
		for _, side := range ev.Sides {
			eps := make([]ids.EndpointID, 0, len(side))
			for _, pid := range side {
				eps = append(eps, ids.ProcessEndpoint(ids.ProcessID(pid)))
			}
			sides = append(sides, eps)
		}
		c.net.Partition(sides...)
		c.notePartition()
	case KindHeal:
		c.net.Heal()
		c.noteHeal()
	case KindSkew:
		if n, ok := c.nodes[ids.ProcessID(ev.Node)]; ok && n.clk.Offset() != ev.Offset {
			n.clk.SetOffset(ev.Offset)
			c.noteSkewTransient()
		}
	case KindCutLink:
		c.net.SetConnected(
			ids.ProcessEndpoint(ids.ProcessID(ev.A)),
			ids.ProcessEndpoint(ids.ProcessID(ev.B)), ev.Up)
		c.noteCut(ev.Up)
	}
}

// run plays the event list and the workload to the configured horizon.
func (c *Cluster) run(events []Event) (*Report, error) {
	// Chaos: every event is a scheduled virtual-time callback.
	for _, ev := range events {
		ev := ev
		c.base.AfterFunc(ev.At, func() { c.apply(ev) })
	}
	// End of chaos: heal the network, revive everything, let the cluster
	// converge during the tail so the final audit judges steady state.
	quiet := c.cfg.Virtual - c.cfg.tail()
	c.base.AfterFunc(quiet, func() {
		c.apply(Event{Kind: KindHeal})
		for _, pid := range c.world {
			c.restartServer(pid)
			c.apply(Event{Kind: KindSkew, Node: int(pid), Offset: 0})
		}
	})
	// Workload stop: half a tail before the horizon, leaving the clients
	// time to run their final durability probes in virtual time.
	c.base.AfterFunc(c.cfg.Virtual-c.cfg.tail()/2, func() {
		c.stopOnce.Do(func() { close(c.stopC) })
	})
	c.inv.start()

	for i := 0; i < c.cfg.Clients; i++ {
		cl, err := c.newClient(i)
		if err != nil {
			return nil, err
		}
		c.clients = append(c.clients, cl)
		c.wg.Add(1)
		go c.clientLoop(cl)
	}

	c.sched.Run(c.cfg.Virtual)
	c.stopOnce.Do(func() { close(c.stopC) }) // safety: zero-tail configs
	c.wg.Wait()

	report := c.inv.finish(events)
	return report, nil
}

// close tears the cluster down in real time (no virtual waits needed:
// every loop wakes on its stop channel).
func (c *Cluster) close() {
	for _, cl := range c.clients {
		cl.c.Close()
	}
	for _, pid := range c.world {
		n := c.nodes[pid]
		n.mu.Lock()
		srv := n.srv
		n.srv = nil
		n.down = true
		n.mu.Unlock()
		if srv != nil {
			srv.Stop()
		}
	}
	c.net.Close()
}
