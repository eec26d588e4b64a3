package bench

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/metrics"
	"hafw/internal/obs"
	"hafw/internal/trace"
	"hafw/internal/transport"
	"hafw/internal/transport/memnet"
	"hafw/internal/transport/tcpnet"
	"hafw/internal/wire"
)

// timers are a cluster's protocol timers.
type timers struct {
	fdInterval, fdTimeout, roundTimeout, ackInterval time.Duration
}

var (
	// patient serves the fault-free workloads. The experiment harnesses
	// suspect a silent peer after 60 ms, and on a two-core box a saturating
	// workload queues heartbeats behind data for longer than that: with the
	// harness timers a 20 s churn3 run saw two to four false exclusions,
	// each with its takeover duplicates and lost requests. No fault is
	// injected in these workloads, so nothing is gained by detecting one
	// fast.
	patient = timers{fdInterval: 25 * time.Millisecond, fdTimeout: time.Second,
		roundTimeout: 250 * time.Millisecond, ackInterval: 25 * time.Millisecond}
	// quick are the experiment harnesses' timers (internal/exp,
	// loadgen.MemnetTarget): what failover3 measures a takeover under.
	quick = timers{fdInterval: 10 * time.Millisecond, fdTimeout: 60 * time.Millisecond,
		roundTimeout: 100 * time.Millisecond, ackInterval: 15 * time.Millisecond}
)

// formationDeadline is far beyond any formation seen to complete (the
// slowest took 1.4 s); a cluster still unformed by then is wedged.
const formationDeadline = 5 * time.Second

var errNotFormed = errors.New("cluster did not form")

// clusterSpec describes a cluster the bench builds itself.
type clusterSpec struct {
	servers     int
	backups     int
	propagation time.Duration
	units       []ids.UnitName
	service     func(ids.UnitName) core.Service
	timers      timers
	tcp         bool // real loopback sockets instead of the in-memory network
	events      bool // keep the servers' promote/demote/view-change event trace
}

// cluster is a set of framework servers in this process, on a zero-delay
// memnet or on loopback TCP, built from core.NewServer and the transport
// constructors.
type cluster struct {
	spec    clusterSpec
	traced  bool
	net     *memnet.Network           // memnet clusters
	addrs   map[ids.EndpointID]string // tcp clusters
	pids    []ids.ProcessID
	trs     []transport.Transport
	servers []*core.Server
	clients []*core.Client

	mu     sync.Mutex
	regs   []*metrics.Registry // every server incarnation's registry
	events *trace.Recorder     // nil unless spec.events
}

// newCluster brings the servers up and waits until every one of them sees
// all of them in every content group.
func newCluster(e env, spec clusterSpec) (*cluster, error) {
	c := &cluster{spec: spec, traced: e.traced}
	if spec.events {
		c.events = trace.NewRecorder()
	}
	if spec.tcp {
		c.addrs = make(map[ids.EndpointID]string)
	} else {
		c.net = memnet.New(memnet.Config{QueueLen: 1 << 16})
	}
	for i := 1; i <= spec.servers; i++ {
		c.pids = append(c.pids, ids.ProcessID(i))
	}
	// Attach (or listen) everywhere first, so every node can reach every
	// other from its first heartbeat.
	for _, pid := range c.pids {
		reg := metrics.NewRegistry()
		c.regs = append(c.regs, reg)
		tr, err := c.endpoint(ids.ProcessEndpoint(pid), reg)
		if err != nil {
			c.close()
			return nil, err
		}
		c.trs = append(c.trs, tr)
	}
	for _, tr := range c.trs {
		if t, ok := tr.(*tcpnet.Transport); ok {
			for ep, addr := range c.addrs {
				if ep != t.Self() {
					t.AddPeer(ep, addr)
				}
			}
		}
	}
	for i := range c.pids {
		srv, err := c.newServer(i, c.regs[i])
		if err != nil {
			c.close()
			return nil, err
		}
		c.servers = append(c.servers, srv)
	}
	// Start the servers highest ID first, a moment apart. The lowest ID
	// coordinates view agreement; started last it finds every peer running
	// and proposes the full view once. Started first, or all at once, it
	// races the others' first heartbeats and formation takes one of
	// several paths a detector interval or a round timeout apart (3, 26,
	// 290 or 1 000 ms), which makes set-up time a coin toss.
	for i := len(c.servers) - 1; i >= 0; i-- {
		if err := c.servers[i].Start(); err != nil {
			c.close()
			return nil, err
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := c.waitFormed(time.Now().Add(formationDeadline)); !ok {
		c.close()
		return nil, errNotFormed
	}
	return c, nil
}

// waitFormed polls until every server sees all of them in every content
// group, and returns when that was first seen to be true.
func (c *cluster) waitFormed(deadline time.Time) (time.Time, bool) {
	for !c.formed() {
		if time.Now().After(deadline) {
			return time.Time{}, false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return time.Now(), true
}

// newServer constructs, without starting it, the server with index i on
// the endpoint c.trs[i], reporting into reg.
func (c *cluster) newServer(i int, reg *metrics.Registry) (*core.Server, error) {
	units := make([]core.UnitConfig, 0, len(c.spec.units))
	for _, u := range c.spec.units {
		units = append(units, core.UnitConfig{
			Unit: u, Service: c.spec.service(u), Backups: c.spec.backups,
			PropagationPeriod: c.spec.propagation, IdleTimeout: 30 * time.Second,
		})
	}
	var tracer *obs.Tracer
	if c.traced {
		tracer = obs.NewTracer(c.pids[i], obs.DefaultSpanCapacity)
	}
	t := c.spec.timers
	return core.NewServer(core.Config{
		Self: c.pids[i], Transport: c.trs[i], World: c.pids, Units: units,
		Metrics: reg, Obs: tracer, Tracer: c.events,
		FDInterval: t.fdInterval, FDTimeout: t.fdTimeout, RoundTimeout: t.roundTimeout, AckInterval: t.ackInterval,
	})
}

// stopServer kills a server of a memnet cluster outright: the network
// drops it first (a crash, not a graceful leave), then the process is torn
// down.
func (c *cluster) stopServer(pid ids.ProcessID) {
	c.net.Crash(ids.ProcessEndpoint(pid))
	c.servers[pid-1].Stop()
}

// restartServer relaunches a stopped server as a fresh process with the
// same identity and no state: a cold rejoin.
func (c *cluster) restartServer(pid ids.ProcessID) error {
	i := int(pid - 1)
	c.net.Revive(ids.ProcessEndpoint(pid))
	reg := metrics.NewRegistry()
	tr, err := c.endpoint(ids.ProcessEndpoint(pid), reg)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.regs = append(c.regs, reg) // the dead incarnation's counters still count
	c.mu.Unlock()
	c.trs[i] = tr
	srv, err := c.newServer(i, reg)
	if err != nil {
		return err
	}
	c.servers[i] = srv
	return srv.Start()
}

// primaryOf asks the first live server who is primary for a session of
// the cluster's first unit.
func (c *cluster) primaryOf(sid ids.SessionID) ids.ProcessID {
	for i, pid := range c.pids {
		if c.net.Crashed(ids.ProcessEndpoint(pid)) {
			continue
		}
		if p := c.servers[i].PrimaryOf(c.spec.units[0], sid); p != ids.Nil {
			return p
		}
	}
	return ids.Nil
}

// endpoint creates one transport endpoint of the cluster's kind. Traced
// clusters count envelopes per wire type on the server endpoints.
func (c *cluster) endpoint(id ids.EndpointID, reg *metrics.Registry) (transport.Transport, error) {
	if !c.traced {
		reg = nil
	}
	if c.spec.tcp {
		peers := make(map[ids.EndpointID]string, len(c.addrs))
		for ep, addr := range c.addrs {
			peers[ep] = addr
		}
		tr, err := tcpnet.New(tcpnet.Config{Self: id, ListenAddr: "127.0.0.1:0", Peers: peers, Metrics: reg})
		if err != nil {
			return nil, err
		}
		if _, isServer := id.Process(); isServer {
			c.addrs[id] = tr.Addr()
		}
		return tr, nil
	}
	ep, err := c.net.Attach(id)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		ep.SetMetrics(reg)
	}
	return ep, nil
}

func (c *cluster) formed() bool {
	for _, srv := range c.servers {
		for _, u := range c.spec.units {
			if len(srv.GroupMembers(core.ContentGroup(u))) != len(c.pids) {
				return false
			}
		}
	}
	return true
}

// responseHook observes every response's transport-level source.
type responseHook func(from ids.EndpointID, sid ids.SessionID, seq uint64, body wire.Message)

// newClient attaches one framework client on its own endpoint; hook may be
// nil.
func (c *cluster) newClient(hook responseHook) (*core.Client, error) {
	cid := ids.ClientID(5001 + len(c.clients))
	tr, err := c.endpoint(ids.ClientEndpoint(cid), nil)
	if err != nil {
		return nil, err
	}
	client, err := core.NewClient(core.ClientConfig{
		Self: cid, Transport: tr, Servers: append([]ids.ProcessID(nil), c.pids...),
		RequestTimeout: time.Second, Retries: 6, OnResponseFrom: hook,
	})
	if err != nil {
		return nil, err
	}
	c.clients = append(c.clients, client)
	if c.spec.tcp {
		// Talk to every server once before opening a session: it dials the
		// connections and teaches the servers the path back to this client.
		// Without it one TCP set-up in six loses its first StartSession and
		// waits out a request timeout.
		if _, err := client.ListUnits(); err != nil {
			return nil, err
		}
	}
	return client, nil
}

// primaries describes where the sessions of the cluster's units live, for
// the run's notes: two runs that placed sessions differently are not
// measuring the same thing.
func (c *cluster) primaries() string {
	out := ""
	for _, u := range c.spec.units {
		for _, s := range c.servers[0].DBSnapshot(u).Sessions {
			out += fmt.Sprintf(" %s/%v:primary %v backups %v;", u, s.ID, s.Primary, s.Backups)
		}
	}
	return out
}

func (c *cluster) counters() counters {
	ctr := counters{client: sumClientStats(c.clients)}
	if c.net != nil {
		st := c.net.Stats()
		ctr.netSent, ctr.netBytes = st.Sent, st.Bytes
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, reg := range c.regs {
		ctr.addRegistry(reg)
	}
	return ctr
}

// drops is the envelopes the in-memory network lost to random loss or
// full queues; the fault-free workloads must see none.
func (c *cluster) drops() uint64 {
	if c.net == nil {
		return 0
	}
	st := c.net.Stats()
	return st.DroppedLoss + st.DroppedQueue
}

func (c *cluster) close() {
	for _, client := range c.clients {
		_ = client.Close()
	}
	for _, srv := range c.servers {
		srv.Stop()
	}
	for _, tr := range c.trs {
		_ = tr.Close()
	}
	if c.net != nil {
		c.net.Close()
	}
}
