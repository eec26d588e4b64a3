package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/metrics"
)

// Clients is the number of client goroutines (and connections) every
// workload drives: one per core of the 2-core box the benchmark targets.
const Clients = 2

// Workloads lists the workload names in the order a full pass runs them.
var Workloads = []string{"echo3", "churn3", "failover3", "stream3tcp"}

// env is what a workload's set-up may depend on.
type env struct {
	runSeed int64 // the run's --seed
	seed    int64 // this segment's own draw from it
	traced  bool  // Obs on, per-type transport counters on
	viol    *violations
	// title caches stream3tcp's media store over a run's segments: the
	// title is the run's input, not the segment's, and ten resident copies
	// of it would be the run's memory footprint.
	title *titleCache
}

// rng returns the deterministic input source for one client of a run.
func (e env) rng(client int) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*7919 + int64(client) + 1))
}

// session is the live state a run measures.
type session struct {
	origin time.Time     // window origin; warm-up is before it
	window time.Duration // measured window length
	slice  time.Duration // the window is cut into slices this long
	stop   <-chan struct{}
	tracer *Tracer // nil unless traced
	recs   [Clients]*recorder
}

// instance is one set-up workload: a formed cluster with its clients
// created and initial sessions open.
type instance interface {
	// run starts the client goroutines (and any fault schedule), drives
	// them until s.stop closes, lets in-flight work finish, and returns.
	run(s *session)
	// counters snapshots the public layer counters the ledger reads.
	counters() counters
	// finish reports facts only known once the run is over.
	finish() extras
	close()
}

// eachClient runs fn once per client goroutine and waits for them all.
func eachClient(fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// extras are workload-specific ledger inputs gathered after the run.
type extras struct {
	resends    uint64
	duplicates uint64
	dupChunks  uint64
	lateNS     []int64 // open-loop generator lateness per op
	faults     []faultCycle
	drops      uint64 // envelopes memnet lost to loss or full queues (must be 0)
	notes      []string
	// redo says the segment broke a check for a reason known not to be the
	// workload's (failover3's finish): one segment's verdict, never folded
	// into a run's extras.
	redo bool
}

// add folds another segment's extras into ex. Notes repeat from segment
// to segment (where the sessions landed); each distinct one is kept once.
func (ex *extras) add(more extras) {
	ex.resends += more.resends
	ex.duplicates += more.duplicates
	ex.dupChunks += more.dupChunks
	ex.lateNS = append(ex.lateNS, more.lateNS...)
	ex.faults = append(ex.faults, more.faults...)
	ex.drops += more.drops
	for _, n := range more.notes {
		seen := false
		for _, have := range ex.notes {
			seen = seen || have == n
		}
		if !seen {
			ex.notes = append(ex.notes, n)
		}
	}
}

// faultCycle is one crash+rejoin as the bench observed it, in
// milliseconds from the StopServer (or RestartServer) call.
type faultCycle struct {
	victim                                          ids.ProcessID
	excludeMS, promoteMS, firstResponseMS, rejoinMS float64
}

// counters is a snapshot of what the system's public counters say.
type counters struct {
	client   core.ClientStats
	netSent  uint64 // memnet.Network.Stats; zero on the TCP workload
	netBytes uint64
	env      map[string]uint64 // envelopes put on the wire, by wire type
	envBytes map[string]uint64
	views    uint64            // content-group views installed, summed over servers and units
	vcCount  map[string]uint64 // viewchange_duration_seconds observations by phase
	vcSumNS  map[string]float64
}

func sumClientStats(clients []*core.Client) core.ClientStats {
	var t core.ClientStats
	for _, c := range clients {
		st := c.Stats()
		t.Calls += st.Calls
		t.Sends += st.Sends
		t.Retries += st.Retries
		t.Timeouts += st.Timeouts
		t.Reresolves += st.Reresolves
		t.Responses += st.Responses
		t.SendErrors += st.SendErrors
	}
	return t
}

// clientOriginated are the wire types only clients put on the wire. Client
// endpoints carry no counters, so these are counted where servers receive
// them; every other type is counted where a server sends it.
var clientOriginated = map[string]bool{"vsync.ClientSend": true, "vsync.Resolve": true}

// viewChangePhases are the labels of viewchange_duration_seconds.
var viewChangePhases = []string{"membership", "state_exchange", "barrier"}

// addRegistry folds one server registry into c: the per-type transport
// ledger and the view-change phase histograms.
func (c *counters) addRegistry(reg *metrics.Registry) {
	if c.env == nil {
		c.env = make(map[string]uint64)
		c.envBytes = make(map[string]uint64)
		c.vcCount = make(map[string]uint64)
		c.vcSumNS = make(map[string]float64)
	}
	for name, v := range reg.Counters() {
		if name == "content_views" {
			c.views += v
		}
		family, typ, ok := splitTypeLabel(name)
		if !ok {
			continue
		}
		switch {
		case family == "transport_send_total" && !clientOriginated[typ],
			family == "transport_recv_total" && clientOriginated[typ]:
			c.env[typ] += v
		case family == "transport_send_bytes_total" && !clientOriginated[typ],
			family == "transport_recv_bytes_total" && clientOriginated[typ]:
			c.envBytes[typ] += v
		}
	}
	for _, phase := range viewChangePhases {
		h := reg.Histogram(fmt.Sprintf("viewchange_duration_seconds{phase=%q}", phase))
		n := h.Count()
		c.vcCount[phase] += n
		c.vcSumNS[phase] += float64(h.Mean()) * float64(n)
	}
}

// splitTypeLabel parses `family{type="x"}` counter names.
func splitTypeLabel(name string) (family, typ string, ok bool) {
	i := strings.Index(name, `{type="`)
	if i < 0 || !strings.HasSuffix(name, `"}`) {
		return "", "", false
	}
	return name[:i], name[i+len(`{type="`) : len(name)-2], true
}

// setup builds the named workload.
func setup(name string, e env) (instance, error) {
	switch name {
	case "echo3":
		return setupEcho(e)
	case "churn3":
		return setupChurn(e)
	case "failover3":
		return setupFailover(e)
	case "stream3tcp":
		return setupStream(e)
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %s)", name, strings.Join(Workloads, ", "))
}
