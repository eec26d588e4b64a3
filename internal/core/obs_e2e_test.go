package core

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hafw/internal/ids"
	"hafw/internal/metrics"
	"hafw/internal/obs"
	"hafw/internal/testutil"
	"hafw/internal/transport/memnet"
)

// obsWorld is the observability e2e harness: a memnet cluster where every
// server carries its own metric registry and span tracer, exactly as
// cmd/hanode wires them.
type obsWorld struct {
	*world
	regs    map[ids.ProcessID]*metrics.Registry
	tracers map[ids.ProcessID]*obs.Tracer
}

func newObsWorld(t *testing.T, n, backups int, prop time.Duration) *obsWorld {
	t.Helper()
	ow := &obsWorld{
		world: &world{
			t:       t,
			net:     memnet.New(memnet.Config{}),
			servers: make(map[ids.ProcessID]*Server),
			svcs:    make(map[ids.ProcessID]*testService),
			backups: backups,
			prop:    prop,
		},
		regs:    make(map[ids.ProcessID]*metrics.Registry),
		tracers: make(map[ids.ProcessID]*obs.Tracer),
	}
	t.Cleanup(func() {
		for _, s := range ow.servers {
			s.Stop()
		}
		ow.net.Close()
	})
	for i := 1; i <= n; i++ {
		ow.pids = append(ow.pids, ids.ProcessID(i))
	}
	for _, pid := range ow.pids {
		ep, err := ow.net.Attach(ids.ProcessEndpoint(pid))
		if err != nil {
			t.Fatalf("attach: %v", err)
		}
		reg := metrics.NewRegistry()
		ep.SetMetrics(reg)
		tracer := obs.NewTracer(pid, 4096)
		svc := newTestService(pid)
		srv, err := NewServer(Config{
			Self:      pid,
			Transport: ep,
			World:     ow.pids,
			Units: []UnitConfig{{
				Unit: unitU, Service: svc, Backups: backups, PropagationPeriod: prop,
			}},
			Metrics:      reg,
			Obs:          tracer,
			FDInterval:   10 * time.Millisecond * testutil.TimeScale,
			FDTimeout:    60 * time.Millisecond * testutil.TimeScale,
			RoundTimeout: 100 * time.Millisecond * testutil.TimeScale,
			AckInterval:  15 * time.Millisecond * testutil.TimeScale,
		})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		if err := srv.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		ow.servers[pid] = srv
		ow.svcs[pid] = svc
		ow.regs[pid] = reg
		ow.tracers[pid] = tracer
	}
	return ow
}

// newTracedClient attaches a client that carries its own tracer, so client
// request roots appear in the merged timeline as a distinct "node".
func (ow *obsWorld) newTracedClient(cid ids.ClientID) (*Client, *obs.Tracer) {
	ow.t.Helper()
	ep, err := ow.net.Attach(ids.ClientEndpoint(cid))
	if err != nil {
		ow.t.Fatalf("attach client: %v", err)
	}
	tracer := obs.NewTracer(ids.ProcessID(cid), 4096)
	c, err := NewClient(ClientConfig{
		Self:           cid,
		Transport:      ep,
		Servers:        ow.pids,
		Obs:            tracer,
		RequestTimeout: 400 * time.Millisecond,
		Retries:        5,
	})
	if err != nil {
		ow.t.Fatalf("NewClient: %v", err)
	}
	ow.t.Cleanup(func() { _ = c.Close() })
	return c, tracer
}

// TestObservabilityFailoverEndToEnd is the issue's acceptance scenario on
// memnet: a 3-node cluster under client traffic loses its primary, and
// afterwards (a) the survivors' /metrics expositions carry the freshness
// and view-change families and (b) the merged span dumps form one causally
// linked timeline crossing node boundaries.
func TestObservabilityFailoverEndToEnd(t *testing.T) {
	w := newObsWorld(t, 3, 2, 50*time.Millisecond)
	w.waitReady()
	c, clientTracer := w.newTracedClient(100)

	sink := &respSink{}
	sess, err := c.StartSession(unitU, sink.handler)
	if err != nil {
		t.Fatal(err)
	}

	// Drive traffic until every backup has observed at least two context
	// refreshes (the staleness histogram needs successive refreshes, and
	// dirty-skip means refreshes only follow updates).
	staleObs := func(pid ids.ProcessID) uint64 {
		return w.regs[pid].Histogram("backup_staleness_seconds").Count()
	}
	i := 0
	waitFor(t, 60*time.Second, func() bool {
		if err := sess.Send(updReq{S: "tick", Echo: i%4 == 0}); err != nil {
			return false
		}
		i++
		time.Sleep(20 * time.Millisecond)
		seen := 0
		for _, pid := range w.pids {
			if staleObs(pid) >= 2 {
				seen++
			}
		}
		return seen >= 2 // the two backups
	}, "backups observe successive refreshes")

	primary := w.servers[1].PrimaryOf(unitU, sess.ID)
	w.net.Crash(ids.ProcessEndpoint(primary))

	var survivor ids.ProcessID
	for _, pid := range w.pids {
		if pid != primary {
			survivor = pid
			break
		}
	}
	waitFor(t, 30*time.Second, func() bool {
		np := w.servers[survivor].PrimaryOf(unitU, sess.ID)
		return np != ids.Nil && np != primary
	}, "new primary elected")

	// Traffic resumes against the new primary.
	waitFor(t, 30*time.Second, func() bool {
		if err := sess.Send(updReq{S: "post", Echo: true}); err != nil {
			return false
		}
		time.Sleep(50 * time.Millisecond)
		return sink.count() >= 1
	}, "client gets responses after failover")

	// (a) The survivor's exposition, scraped over HTTP exactly as hastat
	// does, carries the freshness and view-change families.
	srv := httptest.NewServer(obs.NewHandler(obs.ServerConfig{
		Registry: w.regs[survivor],
		Tracer:   w.tracers[survivor],
		Status:   w.servers[survivor].Status,
		Health:   w.servers[survivor].Health,
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	exposition := string(body)
	for _, fam := range []string{
		"hafw_backup_staleness_seconds_bucket",
		`hafw_viewchange_duration_seconds_bucket{phase="membership"`,
		`hafw_viewchange_duration_seconds_bucket{phase="state_exchange"`,
		`hafw_viewchange_duration_seconds_bucket{phase="barrier"`,
		"hafw_propagation_lag_seconds_count",
		`hafw_transport_send_total{type="vsync.Data"}`,
		`hafw_transport_recv_total{type=`,
	} {
		if !strings.Contains(exposition, fam) {
			t.Errorf("survivor /metrics missing %q", fam)
		}
	}

	// /statusz reflects the live topology: the unit is hosted and the
	// session is visible with a role.
	resp, err = http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var st obs.NodeStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/statusz not JSON: %v", err)
	}
	if st.Node != uint64(survivor) || len(st.Units) != 1 || st.Units[0].Unit != string(unitU) {
		t.Errorf("statusz topology = %+v", st)
	}
	if len(st.Sessions) == 0 {
		t.Error("statusz shows no sessions after failover traffic")
	}
	if st.DirGroups < len(st.Groups) {
		t.Errorf("statusz DirGroups = %d, fewer than the %d groups it lists", st.DirGroups, len(st.Groups))
	}

	// (b) The merged dumps form one cross-node causal timeline. Server spans
	// alone must link across nodes (state exchange, request fan-out), and
	// with the client dump added the client's request roots link in too.
	var serverDumps, allDumps []obs.TraceDump
	for _, pid := range w.pids {
		d := obs.TraceDump{Node: pid, Dropped: w.tracers[pid].Dropped(), Spans: w.tracers[pid].Spans()}
		serverDumps = append(serverDumps, d)
		allDumps = append(allDumps, d)
	}
	allDumps = append(allDumps, obs.TraceDump{
		Node: clientTracer.Node(), Spans: clientTracer.Spans(),
	})
	if got := obs.CrossNodeLinks(serverDumps); got < 1 {
		t.Errorf("CrossNodeLinks(servers) = %d, want >= 1", got)
	}
	if got, want := obs.CrossNodeLinks(allDumps), obs.CrossNodeLinks(serverDumps); got <= want {
		t.Errorf("client dump added no links: all=%d servers=%d", got, want)
	}
	nodesWithSpans := 0
	for _, d := range serverDumps {
		if len(d.Spans) > 0 {
			nodesWithSpans++
		}
	}
	if nodesWithSpans < 2 {
		t.Errorf("spans on %d server nodes, want >= 2", nodesWithSpans)
	}
	events := obs.MergeChrome(allDumps)
	var flows int
	for _, e := range events {
		if e.Ph == "s" {
			flows++
		}
	}
	if flows == 0 {
		t.Error("merged chrome trace has no flow links")
	}
	if _, err := obs.EncodeChrome(events); err != nil {
		t.Fatalf("EncodeChrome: %v", err)
	}
}
