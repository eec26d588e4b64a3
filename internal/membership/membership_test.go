package membership

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"hafw/internal/fd"
	"hafw/internal/ids"
	"hafw/internal/testutil"
	"hafw/internal/transport/memnet"
	"hafw/internal/wire"
)

// testNode wires transport + failure detector + membership for one process.
type testNode struct {
	id  ids.ProcessID
	svc *Service
	det *fd.Detector

	mu       sync.Mutex
	views    []View
	installs []map[ids.ProcessID][]byte
}

func (n *testNode) lastView() View {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.views) == 0 {
		return View{}
	}
	return n.views[len(n.views)-1]
}

func (n *testNode) viewHistory() []View {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]View, len(n.views))
	copy(out, n.views)
	return out
}

// cluster is a set of test nodes sharing a memnet.
type cluster struct {
	net   *memnet.Network
	nodes map[ids.ProcessID]*testNode
}

func newCluster(t *testing.T, pids ...ids.ProcessID) *cluster {
	t.Helper()
	c := &cluster{net: memnet.New(memnet.Config{}), nodes: make(map[ids.ProcessID]*testNode)}
	t.Cleanup(c.close)
	for _, pid := range pids {
		c.addNode(t, pid, pids)
	}
	return c
}

func (c *cluster) addNode(t *testing.T, pid ids.ProcessID, world []ids.ProcessID) *testNode {
	t.Helper()
	ep, err := c.net.Attach(ids.ProcessEndpoint(pid))
	if err != nil {
		t.Fatalf("attach %v: %v", pid, err)
	}
	n := &testNode{id: pid}
	n.det = fd.New(fd.Config{
		Self:     pid,
		Interval: 10 * time.Millisecond * testutil.TimeScale,
		Timeout:  60 * time.Millisecond * testutil.TimeScale,
		Send:     ep,
		OnChange: func(r []ids.ProcessID) { n.svc.ReachableChanged(r) },
	})
	n.svc = New(Config{
		Self:         pid,
		Send:         ep,
		RoundTimeout: 100 * time.Millisecond * testutil.TimeScale,
		Hooks: NopHooks{OnInstall: func(v View, states map[ids.ProcessID][]byte) {
			n.mu.Lock()
			defer n.mu.Unlock()
			n.views = append(n.views, v)
			n.installs = append(n.installs, states)
		}},
	})
	ep.SetHandler(func(env wire.Envelope) {
		from, ok := env.From.Process()
		if !ok {
			return
		}
		n.det.Observe(from)
		switch env.Payload.(type) {
		case Propose, Accept, Commit, Nudge:
			n.svc.Handle(from, env.Payload)
		}
	})
	n.det.SetPeers(world)
	n.svc.Start()
	n.det.Start()
	c.nodes[pid] = n
	return n
}

func (c *cluster) close() {
	for _, n := range c.nodes {
		n.det.Stop()
		n.svc.Stop()
	}
	c.net.Close()
}

func (c *cluster) eps(pids ...ids.ProcessID) []ids.EndpointID {
	out := make([]ids.EndpointID, len(pids))
	for i, p := range pids {
		out[i] = ids.ProcessEndpoint(p)
	}
	return out
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout * testutil.TimeScale)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for: %s", msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// converged reports whether every listed node's last view has exactly the
// given members and all agree on the view ID.
func (c *cluster) converged(members ...ids.ProcessID) bool {
	want := normalizeMembers(members)
	var vid ids.ViewID
	for i, pid := range want {
		v := c.nodes[pid].svc.View()
		if !reflect.DeepEqual(v.Members, want) {
			return false
		}
		if i == 0 {
			vid = v.ID
		} else if v.ID != vid {
			return false
		}
	}
	return true
}

func TestStableConvergence(t *testing.T) {
	c := newCluster(t, 1, 2, 3, 4)
	waitFor(t, 5*time.Second, func() bool { return c.converged(1, 2, 3, 4) },
		"all 4 nodes install the same full view")
}

func TestCrashInstallsSurvivorView(t *testing.T) {
	c := newCluster(t, 1, 2, 3)
	waitFor(t, 5*time.Second, func() bool { return c.converged(1, 2, 3) }, "initial view")

	c.net.Crash(ids.ProcessEndpoint(3))
	waitFor(t, 5*time.Second, func() bool { return c.converged(1, 2) },
		"survivors install {1,2}")
}

func TestCoordinatorCrash(t *testing.T) {
	// Crash the coordinator (least pid): the next-lowest must take over.
	c := newCluster(t, 1, 2, 3)
	waitFor(t, 5*time.Second, func() bool { return c.converged(1, 2, 3) }, "initial view")

	c.net.Crash(ids.ProcessEndpoint(1))
	waitFor(t, 5*time.Second, func() bool { return c.converged(2, 3) },
		"survivors install {2,3} with p2 coordinating")
	if got := c.nodes[2].lastView().Coordinator(); got != 2 {
		t.Errorf("new coordinator = %v, want 2", got)
	}
}

func TestPartitionBothSidesInstall(t *testing.T) {
	c := newCluster(t, 1, 2, 3, 4)
	waitFor(t, 5*time.Second, func() bool { return c.converged(1, 2, 3, 4) }, "initial view")

	c.net.Partition(c.eps(1, 2), c.eps(3, 4))
	waitFor(t, 5*time.Second, func() bool {
		return c.converged(1, 2) && c.converged(3, 4)
	}, "each side installs its own view")

	v12 := c.nodes[1].lastView()
	v34 := c.nodes[3].lastView()
	if v12.ID == v34.ID {
		t.Errorf("disjoint partitions must not share a view ID: %v", v12.ID)
	}
}

func TestPartitionHealMerges(t *testing.T) {
	c := newCluster(t, 1, 2, 3, 4)
	waitFor(t, 5*time.Second, func() bool { return c.converged(1, 2, 3, 4) }, "initial view")
	c.net.Partition(c.eps(1, 2), c.eps(3, 4))
	waitFor(t, 5*time.Second, func() bool { return c.converged(1, 2) && c.converged(3, 4) }, "split")
	c.net.Heal()
	waitFor(t, 5*time.Second, func() bool { return c.converged(1, 2, 3, 4) }, "merged view after heal")
}

func TestViewMonotonicityAndSelfInclusion(t *testing.T) {
	c := newCluster(t, 1, 2, 3)
	waitFor(t, 5*time.Second, func() bool { return c.converged(1, 2, 3) }, "initial view")
	c.net.Crash(ids.ProcessEndpoint(3))
	waitFor(t, 5*time.Second, func() bool { return c.converged(1, 2) }, "survivor view")
	c.net.Revive(ids.ProcessEndpoint(3))
	waitFor(t, 5*time.Second, func() bool { return c.converged(1, 2, 3) }, "rejoin view")

	for pid, n := range c.nodes {
		hist := n.viewHistory()
		for i, v := range hist {
			if !v.Contains(pid) {
				t.Errorf("p%d installed a view excluding itself: %v", pid, v)
			}
			if i > 0 && !hist[i-1].ID.Less(v.ID) {
				t.Errorf("p%d views not monotone: %v then %v", pid, hist[i-1].ID, v.ID)
			}
		}
	}
}

func TestAgreedViewCarriesAllStates(t *testing.T) {
	// Virtual-synchrony precondition: members that install a view received
	// a state blob from every member of that view.
	c := newCluster(t, 1, 2, 3)
	waitFor(t, 5*time.Second, func() bool { return c.converged(1, 2, 3) }, "initial view")

	for pid, n := range c.nodes {
		n.mu.Lock()
		if len(n.installs) == 0 {
			n.mu.Unlock()
			t.Fatalf("p%d recorded no installs", pid)
		}
		last := n.installs[len(n.installs)-1]
		n.mu.Unlock()
		v := n.lastView()
		for _, m := range v.Members {
			if _, ok := last[m]; !ok {
				t.Errorf("p%d: install for %v missing state from %v", pid, v.ID, m)
			}
		}
	}
}

func TestSequentialJoins(t *testing.T) {
	c := newCluster(t, 1)
	waitFor(t, 2*time.Second, func() bool { return c.converged(1) }, "singleton view")

	world := []ids.ProcessID{1, 2}
	c.addNode(t, 2, world)
	c.nodes[1].det.AddPeer(2)
	waitFor(t, 5*time.Second, func() bool { return c.converged(1, 2) }, "p2 joined")

	world = []ids.ProcessID{1, 2, 3}
	c.addNode(t, 3, world)
	c.nodes[1].det.AddPeer(3)
	c.nodes[2].det.AddPeer(3)
	waitFor(t, 5*time.Second, func() bool { return c.converged(1, 2, 3) }, "p3 joined")
}

func TestNonTransitiveStillInstallsSomething(t *testing.T) {
	// a–b cut but both reach c: the membership must still make progress
	// (the paper notes such scenarios only occur in WANs and can produce
	// differing views; we require only that nodes do not wedge and that
	// every installed view includes the installer).
	c := newCluster(t, 1, 2, 3)
	waitFor(t, 5*time.Second, func() bool { return c.converged(1, 2, 3) }, "initial view")

	c.net.SetConnected(ids.ProcessEndpoint(1), ids.ProcessEndpoint(2), false)
	time.Sleep(500 * time.Millisecond)
	for pid, n := range c.nodes {
		v := n.lastView()
		if !v.Contains(pid) {
			t.Errorf("p%d wedged in a view excluding itself: %v", pid, v)
		}
	}
	c.net.Heal()
	waitFor(t, 5*time.Second, func() bool { return c.converged(1, 2, 3) }, "recovered after heal")
}

func TestStopIsIdempotentAndTerminates(t *testing.T) {
	c := newCluster(t, 1, 2)
	waitFor(t, 5*time.Second, func() bool { return c.converged(1, 2) }, "initial view")
	n := c.nodes[1]
	n.svc.Stop()
	n.svc.Stop() // second stop must not hang or panic
}

func TestHandleUnknownMessageIgnored(t *testing.T) {
	c := newCluster(t, 1)
	c.nodes[1].svc.Handle(9, fd.Heartbeat{}) // not a membership message
	waitFor(t, 2*time.Second, func() bool { return c.converged(1) }, "still healthy")
}

func TestManyNodesConverge(t *testing.T) {
	if testing.Short() {
		t.Skip("slow convergence test")
	}
	var pids []ids.ProcessID
	for i := 1; i <= 8; i++ {
		pids = append(pids, ids.ProcessID(i))
	}
	c := newCluster(t, pids...)
	waitFor(t, 10*time.Second, func() bool { return c.converged(pids...) },
		fmt.Sprintf("%d nodes converge", len(pids)))
}
