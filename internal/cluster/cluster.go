// Package cluster runs a framework deployment inside one process: N
// servers on the in-memory network (on the wall clock or a virtual one)
// or on loopback TCP, every server replicating every content unit, with
// the verbs experiments, load runs and the simulator need — formation
// wait, clients, crash and revive, stop and restart from a data
// directory, joins, per-server registries, services and clocks, and the
// per-server primary count. A Cluster is a loadgen.Target.
//
// Protocol timers and the client request timeout belong to the transport
// and the cluster size (see Transport.Timers), so runs on the same
// transport are comparable.
//
//hafw:simclock
package cluster

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hafw/internal/clock"
	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/loadgen"
	"hafw/internal/metrics"
	"hafw/internal/obs"
	"hafw/internal/testutil"
	"hafw/internal/trace"
	"hafw/internal/transport"
	"hafw/internal/transport/memnet"
	"hafw/internal/transport/tcpnet"
	"hafw/internal/wire"
)

// Transport selects what the servers talk over.
type Transport int

const (
	// Memnet is the in-memory network: zero latency unless Config.Net says
	// otherwise, with partition and crash injection (Cluster.Net).
	Memnet Transport = iota
	// TCP gives every server a loopback tcpnet listener, so bulk frames
	// share real sockets with heartbeats and total-order traffic.
	TCP
	// Virtual is the in-memory network on the virtual clock in
	// Config.Net.Clock, which must be a clock.Skewable. Servers (each on
	// its own skewable clock, see Cluster.Clock), clients and WaitFormed
	// run on it too. New returns without waiting for formation, since
	// virtual time only moves once the clock's scheduler runs.
	Virtual
)

// Timers is a protocol timer profile.
type Timers struct {
	FDInterval, FDTimeout, RoundTimeout, AckInterval time.Duration
	// RequestTimeout is the client's per-attempt timeout.
	RequestTimeout time.Duration
	// IdleTimeout closes sessions without client activity; zero never
	// does.
	IdleTimeout time.Duration
}

// Timers returns the profile a cluster of the given size runs on the
// transport. The in-memory network runs the compressed experiment
// timescale and loopback TCP gets more slack for socket scheduling and
// bulk frames, both multiplied by testutil.TimeScale. The virtual clock
// runs deployment timescales, which cost nothing there, and above ten
// servers stretches detection and acks, because heartbeat traffic is
// quadratic in the cluster size. It closes no idle session: the
// simulator's audit reads every session's history at the end of a run.
func (k Transport) Timers(servers int) Timers {
	if k == Virtual {
		t := Timers{2 * time.Second, 10 * time.Second, 4 * time.Second, 2 * time.Second, 4 * time.Second, 0}
		if servers > 10 {
			t.FDInterval, t.FDTimeout, t.AckInterval = 15*time.Second, 45*time.Second, 3*time.Second
		}
		return t
	}
	ms := time.Millisecond * time.Duration(testutil.TimeScale)
	if k == TCP {
		return Timers{25 * ms, 150 * ms, 250 * ms, 40 * ms, 1000 * ms, 30 * time.Second}
	}
	return Timers{10 * ms, 60 * ms, 100 * ms, 15 * ms, 400 * ms, 30 * time.Second}
}

// Config parameterizes a cluster.
type Config struct {
	// Servers is the cluster size. Zero means 3.
	Servers int
	// Backups is the per-session backup count (the paper's B).
	Backups int
	// Propagation is the context propagation period (the paper's T).
	// Zero means 50ms.
	Propagation time.Duration
	// Units is how many content units every server replicates. Zero
	// means 1.
	Units int
	// Service builds the service instance a server runs for a unit. Every
	// server must build equivalent state machines for the same unit. Nil
	// means the load generator's echo service.
	Service func(unit ids.UnitName) core.Service
	// Obs enables the full observability path on every server: a span
	// tracer, per-message-type transport counters, and an ops HTTP server
	// on a loopback port (see OpsAddrs).
	Obs bool
	// DataDir, if set, gives every server a durable store under
	// DataDir/p<pid> (interval fsync), so Stop and Restart recover warm.
	DataDir string
	// Net tunes the in-memory network (Memnet and Virtual); its Clock is
	// the Virtual kind's clock.
	Net memnet.Config
}

// Cluster is a live in-process deployment.
type Cluster struct {
	// Net is the in-memory network, for partition and link injection. Nil
	// over TCP.
	Net *memnet.Network
	// Tracer records promote, demote, crash and revive events.
	Tracer *trace.Recorder

	cfg    Config
	timers Timers
	units  []ids.UnitName
	clk    clock.Clock // the wall clock, or Virtual's clock.Skewable

	mu      sync.Mutex
	pids    []ids.ProcessID
	nodes   map[ids.ProcessID]*node
	addrs   map[ids.EndpointID]string // TCP listen addresses
	nextCID ids.ClientID
}

// node is one server incarnation. Every field is written under
// Cluster.mu.
type node struct {
	ep       transport.Transport
	clk      clock.Skewable // Virtual only; kept across restarts
	reg      *metrics.Registry
	srv      *core.Server // nil until started and once stopped
	svcs     map[ids.UnitName]core.Service
	opsAddr  string
	opsClose func() error
	down     bool // crashed or stopped
}

// New brings the cluster up and, except on the Virtual kind, waits for
// every unit's content group to form. Every server gets its endpoint
// before any server starts, so no early heartbeat goes to a peer that
// does not exist yet.
func New(kind Transport, cfg Config) (*Cluster, error) {
	if cfg.Servers == 0 {
		cfg.Servers = 3
	}
	if cfg.Propagation == 0 {
		cfg.Propagation = 50 * time.Millisecond
	}
	if cfg.Units == 0 {
		cfg.Units = 1
	}
	if cfg.Service == nil {
		cfg.Service = func(ids.UnitName) core.Service { return loadgen.NewEchoService() }
	}
	c := &Cluster{
		// Bounded: every session start and failover records events, and
		// a long load run must not grow without limit.
		Tracer:  trace.NewRecorderCapacity(1 << 16),
		cfg:     cfg,
		timers:  kind.Timers(cfg.Servers),
		clk:     clock.Real,
		nodes:   make(map[ids.ProcessID]*node),
		addrs:   make(map[ids.EndpointID]string),
		nextCID: 1000,
	}
	if kind == Virtual {
		if _, ok := cfg.Net.Clock.(clock.Skewable); !ok {
			return nil, fmt.Errorf("cluster: the virtual kind needs a clock.Skewable in Config.Net.Clock")
		}
		c.clk = cfg.Net.Clock
	}
	if kind != TCP {
		c.Net = memnet.New(cfg.Net)
	}
	for i := 0; i < cfg.Units; i++ {
		c.units = append(c.units, ids.UnitName(fmt.Sprintf("u%d", i)))
	}
	for i := 1; i <= cfg.Servers; i++ {
		c.pids = append(c.pids, ids.ProcessID(i))
	}
	for _, pid := range c.pids {
		if err := c.attach(pid); err != nil {
			c.Close()
			return nil, err
		}
	}
	for _, pid := range c.pids {
		if err := c.start(pid); err != nil {
			c.Close()
			return nil, err
		}
	}
	if kind != Virtual {
		if err := c.WaitFormed(30 * time.Second); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// attach registers a fresh incarnation of pid and gives it an endpoint: a
// memnet attachment, or a loopback listener (on pid's old address when it
// restarts) that every other server's transport learns.
func (c *Cluster) attach(pid ids.ProcessID) error {
	n := &node{reg: metrics.NewRegistry(), down: true}
	var counters *metrics.Registry
	if c.cfg.Obs {
		counters = n.reg
	}
	self := ids.ProcessEndpoint(pid)
	var tcp *tcpnet.Transport
	if c.Net != nil {
		ep, err := c.Net.Attach(self)
		if err != nil {
			return err
		}
		if counters != nil {
			ep.SetMetrics(counters)
		}
		n.ep = ep
	} else {
		c.mu.Lock()
		addr := c.addrs[self]
		c.mu.Unlock()
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		var err error
		if tcp, err = tcpnet.New(tcpnet.Config{Self: self, ListenAddr: addr, Metrics: counters}); err != nil {
			return err
		}
		n.ep = tcp
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.nodes[pid]; old != nil {
		n.clk = old.clk
	} else if base, ok := c.clk.(clock.Skewable); ok {
		n.clk = base.Skewed()
	}
	if tcp != nil {
		c.addrs[self] = tcp.Addr()
		for other, o := range c.nodes {
			if peer, ok := o.ep.(*tcpnet.Transport); ok && other != pid {
				peer.AddPeer(self, c.addrs[self])
				tcp.AddPeer(ids.ProcessEndpoint(other), c.addrs[ids.ProcessEndpoint(other)])
			}
		}
	}
	c.nodes[pid] = n
	return nil
}

// start runs a framework server on pid's current incarnation.
func (c *Cluster) start(pid ids.ProcessID) error {
	c.mu.Lock()
	n := c.nodes[pid]
	world := append([]ids.ProcessID(nil), c.pids...)
	c.mu.Unlock()

	svcs := make(map[ids.UnitName]core.Service, len(c.units))
	units := make([]core.UnitConfig, 0, len(c.units))
	for _, u := range c.units {
		svcs[u] = c.cfg.Service(u)
		units = append(units, core.UnitConfig{
			Unit:              u,
			Service:           svcs[u],
			Backups:           c.cfg.Backups,
			PropagationPeriod: c.cfg.Propagation,
			IdleTimeout:       c.timers.IdleTimeout,
		})
	}
	var tracer *obs.Tracer
	if c.cfg.Obs {
		tracer = obs.NewTracer(pid, obs.DefaultSpanCapacity)
	}
	cfg := core.Config{
		Self:         pid,
		Transport:    n.ep,
		World:        world,
		Units:        units,
		Metrics:      n.reg,
		Tracer:       c.Tracer,
		Obs:          tracer,
		FDInterval:   c.timers.FDInterval,
		FDTimeout:    c.timers.FDTimeout,
		RoundTimeout: c.timers.RoundTimeout,
		AckInterval:  c.timers.AckInterval,
		Clock:        n.clk,
	}
	if c.cfg.DataDir != "" {
		// The default interval fsync keeps disk syncs off the event loop:
		// at these compressed failure-detector timescales, per-append
		// fsyncs can stall heartbeats long enough to cause false
		// suspicions and view churn. Stop still flushes everything via
		// Close.
		cfg.DataDir = c.dataDir(pid)
	}
	srv, err := core.NewServer(cfg)
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	c.mu.Lock()
	n.srv, n.svcs, n.down = srv, svcs, false
	c.mu.Unlock()
	if !c.cfg.Obs {
		return nil
	}
	addr, closeFn, err := obs.Serve("127.0.0.1:0", obs.ServerConfig{
		Registry: n.reg,
		Tracer:   tracer,
		Status:   srv.Status,
		Health:   srv.Health,
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	n.opsAddr, n.opsClose = addr, closeFn
	c.mu.Unlock()
	return nil
}

func (c *Cluster) dataDir(pid ids.ProcessID) string {
	return filepath.Join(c.cfg.DataDir, fmt.Sprintf("p%d", pid))
}

// AddServer spawns an extra server (a join) and introduces it to the
// world.
func (c *Cluster) AddServer() (ids.ProcessID, error) {
	c.mu.Lock()
	pid := c.pids[len(c.pids)-1] + 1
	c.pids = append(c.pids, pid)
	c.mu.Unlock()
	existing := c.running()
	if err := c.attach(pid); err != nil {
		return ids.Nil, err
	}
	if err := c.start(pid); err != nil {
		return ids.Nil, err
	}
	for _, srv := range existing {
		srv.AddPeer(pid)
	}
	return pid, nil
}

// WaitFormed blocks until every live server sees every live server in
// every unit's content group. It polls on the cluster's clock, so on the
// Virtual kind it must run on a goroutine other than the scheduler's.
func (c *Cluster) WaitFormed(timeout time.Duration) error {
	deadline := c.clk.Now().Add(timeout)
	for !c.formed() {
		if c.clk.Now().After(deadline) {
			return fmt.Errorf("cluster: did not form within %v", timeout)
		}
		c.clk.Sleep(5 * time.Millisecond)
	}
	return nil
}

func (c *Cluster) formed() bool {
	live := c.running()
	for _, srv := range live {
		for _, u := range c.units {
			if len(srv.GroupMembers(core.ContentGroup(u))) != len(live) {
				return false
			}
		}
	}
	return true
}

// Live lists the servers that are running and not crashed.
func (c *Cluster) Live() []ids.ProcessID {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []ids.ProcessID
	for _, pid := range c.pids {
		if n := c.nodes[pid]; n != nil && !n.down {
			out = append(out, pid)
		}
	}
	return out
}

// running returns the live servers in ID order.
func (c *Cluster) running() []*core.Server {
	var out []*core.Server
	for _, pid := range c.Live() {
		if srv := c.Server(pid); srv != nil {
			out = append(out, srv)
		}
	}
	return out
}

// Servers lists every server's process ID, live or not.
func (c *Cluster) Servers() []ids.ProcessID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ids.ProcessID(nil), c.pids...)
}

// Server returns pid's running server, nil when it is stopped.
func (c *Cluster) Server(pid ids.ProcessID) *core.Server { return c.node(pid).srv }

// Service returns the service instance pid's current incarnation runs for
// unit.
func (c *Cluster) Service(pid ids.ProcessID, unit ids.UnitName) core.Service {
	return c.node(pid).svcs[unit]
}

// Clock returns pid's skewable clock on the Virtual kind, nil otherwise.
// It outlives restarts, so a skew stays with the server.
func (c *Cluster) Clock(pid ids.ProcessID) clock.Skewable { return c.node(pid).clk }

// Metrics returns pid's registry. A restarted server gets a fresh one, so
// its counters measure only the rejoin.
func (c *Cluster) Metrics(pid ids.ProcessID) *metrics.Registry { return c.node(pid).reg }

// node returns a copy of pid's current incarnation.
func (c *Cluster) node(pid ids.ProcessID) node {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.nodes[pid]; n != nil {
		return *n
	}
	return node{}
}

// OpsAddrs lists each running server's ops HTTP address (Obs only).
func (c *Cluster) OpsAddrs() map[ids.ProcessID]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[ids.ProcessID]string)
	for pid, n := range c.nodes {
		if n.opsAddr != "" {
			out[pid] = n.opsAddr
		}
	}
	return out
}

// PrimaryOf asks the live servers for a session's primary.
func (c *Cluster) PrimaryOf(unit ids.UnitName, sid ids.SessionID) ids.ProcessID {
	for _, srv := range c.running() {
		if p := srv.PrimaryOf(unit, sid); p != ids.Nil {
			return p
		}
	}
	return ids.Nil
}

// Primaries counts the sessions each server is primary for, across every
// unit, as the first live server's unit databases record them.
func (c *Cluster) Primaries() map[ids.ProcessID]int {
	out := make(map[ids.ProcessID]int)
	if live := c.running(); len(live) > 0 {
		for _, u := range c.units {
			for _, s := range live[0].DBSnapshot(u).Sessions {
				out[s.Primary]++
			}
		}
	}
	return out
}

// Crash fails a server abruptly. On memnet the network drops its traffic
// while the process lives on, so Revive can bring it back as it was; over
// TCP there is no such partition, so Crash is Stop.
func (c *Cluster) Crash(pid ids.ProcessID) {
	if c.Net == nil {
		c.Stop(pid)
		return
	}
	c.setDown(pid, true)
	c.Net.Crash(ids.ProcessEndpoint(pid))
	c.Tracer.Record(pid, trace.KindCrash, 0, "injected")
}

// Revive undoes Crash. Over TCP it is Restart.
func (c *Cluster) Revive(pid ids.ProcessID) error {
	if c.Net == nil {
		return c.Restart(pid)
	}
	c.Net.Revive(ids.ProcessEndpoint(pid))
	c.Tracer.Record(pid, trace.KindRevive, 0, "injected")
	c.setDown(pid, false)
	return nil
}

func (c *Cluster) setDown(pid ids.ProcessID, down bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.nodes[pid]; n != nil {
		n.down = down
	}
}

// Stop kills a server process outright: its traffic stops first (a crash,
// not a graceful leave), then the process is torn down. Its data
// directory, if any, survives for Restart.
func (c *Cluster) Stop(pid ids.ProcessID) {
	c.Tracer.Record(pid, trace.KindCrash, 0, "stop")
	c.halt(pid)
}

func (c *Cluster) halt(pid ids.ProcessID) {
	c.mu.Lock()
	n := c.nodes[pid]
	if n == nil {
		c.mu.Unlock()
		return
	}
	srv, ep, opsClose := n.srv, n.ep, n.opsClose
	n.srv, n.opsClose, n.opsAddr, n.down = nil, nil, "", true
	c.mu.Unlock()
	if c.Net != nil {
		c.Net.Crash(ids.ProcessEndpoint(pid))
	} else {
		_ = ep.Close()
	}
	if srv != nil {
		srv.Stop()
	}
	if opsClose != nil {
		_ = opsClose()
	}
}

// Restart relaunches a stopped server as a fresh process with the same
// identity, address and data directory: with DataDir set it recovers its
// unit databases from disk and rejoins warm.
func (c *Cluster) Restart(pid ids.ProcessID) error {
	if c.Net != nil {
		c.Net.Revive(ids.ProcessEndpoint(pid))
	}
	c.Tracer.Record(pid, trace.KindRevive, 0, "restart")
	if err := c.attach(pid); err != nil {
		return err
	}
	return c.start(pid)
}

// WipeData deletes a stopped server's data directory, turning its next
// Restart into a cold join.
func (c *Cluster) WipeData(pid ids.ProcessID) error {
	if c.cfg.DataDir == "" {
		return nil
	}
	return os.RemoveAll(c.dataDir(pid))
}

// NewClient implements loadgen.Target. onFrom, if non-nil, observes the
// transport-level source of every response.
func (c *Cluster) NewClient(onFrom func(from ids.EndpointID)) (*core.Client, error) {
	c.mu.Lock()
	c.nextCID++
	cid := c.nextCID
	servers := append([]ids.ProcessID(nil), c.pids...)
	peers := maps.Clone(c.addrs)
	c.mu.Unlock()
	var tr transport.Transport
	var err error
	if c.Net != nil {
		tr, err = c.Net.Attach(ids.ClientEndpoint(cid))
	} else {
		tr, err = tcpnet.New(tcpnet.Config{Self: ids.ClientEndpoint(cid), ListenAddr: "127.0.0.1:0", Peers: peers})
	}
	if err != nil {
		return nil, err
	}
	var hook func(ids.EndpointID, ids.SessionID, uint64, wire.Message)
	if onFrom != nil {
		hook = func(from ids.EndpointID, _ ids.SessionID, _ uint64, _ wire.Message) { onFrom(from) }
	}
	return core.NewClient(core.ClientConfig{
		Self:           cid,
		Transport:      tr,
		Servers:        servers,
		RequestTimeout: c.timers.RequestTimeout,
		Retries:        6,
		OnResponseFrom: hook,
		Clock:          c.clk,
	})
}

// Units implements loadgen.Target.
func (c *Cluster) Units() []ids.UnitName { return append([]ids.UnitName(nil), c.units...) }

// Info implements loadgen.Target.
func (c *Cluster) Info() loadgen.TargetInfo {
	mode := "memnet"
	if c.Net == nil {
		mode = "tcpnet"
	}
	return loadgen.TargetInfo{
		Mode:          mode,
		Servers:       c.cfg.Servers,
		Replication:   c.cfg.Servers,
		Backups:       c.cfg.Backups,
		PropagationMS: c.cfg.Propagation.Milliseconds(),
	}
}

// Close implements loadgen.Target: it tears every server down.
func (c *Cluster) Close() {
	for _, pid := range c.Servers() {
		c.halt(pid)
	}
	if c.Net != nil {
		c.Net.Close()
	}
}
