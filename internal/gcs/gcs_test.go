package gcs

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"hafw/internal/ids"
	"hafw/internal/testutil"
	"hafw/internal/transport/memnet"
	"hafw/internal/wire"
)

type testMsg struct {
	K string
	N int
}

func (testMsg) WireName() string { return "gcs.testMsg" }

func init() { wire.Register(testMsg{}) }

// recorder captures a process's event stream.
type recorder struct {
	mu     sync.Mutex
	events []Event
}

func (r *recorder) onEvent(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

// msgs returns payload summaries of MessageEvents for a group, in delivery
// order.
func (r *recorder) msgs(g ids.GroupName) []testMsg {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []testMsg
	for _, e := range r.events {
		if me, ok := e.(MessageEvent); ok && me.Group == g {
			if tm, ok := me.Payload.(testMsg); ok {
				out = append(out, tm)
			}
		}
	}
	return out
}

// views returns the ViewEvents for a group in order.
func (r *recorder) views(g ids.GroupName) []ViewEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []ViewEvent
	for _, e := range r.events {
		if ve, ok := e.(ViewEvent); ok && ve.View.Group == g {
			out = append(out, ve)
		}
	}
	return out
}

// lastGroupView returns the members of the most recent group view, or nil.
func (r *recorder) lastGroupView(g ids.GroupName) []ids.ProcessID {
	vs := r.views(g)
	if len(vs) == 0 {
		return nil
	}
	return vs[len(vs)-1].View.Members
}

// harness is a set of processes over a shared memnet.
type harness struct {
	t    *testing.T
	net  *memnet.Network
	proc map[ids.ProcessID]*Process
	rec  map[ids.ProcessID]*recorder
	pids []ids.ProcessID
	// slowTimers relaxes the protocol constants for hostile-network tests
	// (loss + race-detector slowdown would otherwise flap the failure
	// detector endlessly).
	slowTimers bool
}

func newHarness(t *testing.T, count int) *harness {
	t.Helper()
	h := &harness{
		t:    t,
		net:  memnet.New(memnet.Config{}),
		proc: make(map[ids.ProcessID]*Process),
		rec:  make(map[ids.ProcessID]*recorder),
	}
	t.Cleanup(func() {
		for _, p := range h.proc {
			p.Stop()
		}
		h.net.Close()
	})
	for i := 1; i <= count; i++ {
		h.pids = append(h.pids, ids.ProcessID(i))
	}
	for _, pid := range h.pids {
		h.addProcess(pid)
	}
	return h
}

func (h *harness) addProcess(pid ids.ProcessID) *Process {
	h.t.Helper()
	ep, err := h.net.Attach(ids.ProcessEndpoint(pid))
	if err != nil {
		h.t.Fatalf("attach p%d: %v", pid, err)
	}
	rec := &recorder{}
	cfg := Config{
		Self:         pid,
		Transport:    ep,
		World:        h.pids,
		OnEvent:      rec.onEvent,
		FDInterval:   10 * time.Millisecond * testutil.TimeScale,
		FDTimeout:    60 * time.Millisecond * testutil.TimeScale,
		RoundTimeout: 100 * time.Millisecond * testutil.TimeScale,
		AckInterval:  15 * time.Millisecond * testutil.TimeScale,
	}
	if h.slowTimers {
		cfg.FDInterval = 25 * time.Millisecond
		cfg.FDTimeout = 400 * time.Millisecond
		cfg.RoundTimeout = 400 * time.Millisecond
		cfg.AckInterval = 30 * time.Millisecond
	}
	p, err := NewProcess(cfg)
	if err != nil {
		h.t.Fatalf("NewProcess p%d: %v", pid, err)
	}
	h.proc[pid] = p
	h.rec[pid] = rec
	p.Start()
	return p
}

func (h *harness) waitConverged(pids ...ids.ProcessID) {
	h.t.Helper()
	waitFor(h.t, 20*time.Second, func() bool {
		var vid ids.ViewID
		for i, pid := range pids {
			v := h.proc[pid].View()
			if len(v.Members) != len(pids) {
				return false
			}
			if i == 0 {
				vid = v.ID
			} else if v.ID != vid {
				return false
			}
		}
		return true
	}, fmt.Sprintf("view convergence of %v", pids))
}

func (h *harness) eps(pids ...ids.ProcessID) []ids.EndpointID {
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

const grpA ids.GroupName = "content/A"
const grpB ids.GroupName = "content/B"

func TestJoinEmitsGroupView(t *testing.T) {
	h := newHarness(t, 3)
	h.waitConverged(1, 2, 3)

	if err := h.proc[1].Join(grpA); err != nil {
		t.Fatal(err)
	}
	if err := h.proc[2].Join(grpA); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, func() bool {
		return reflect.DeepEqual(h.rec[1].lastGroupView(grpA), []ids.ProcessID{1, 2}) &&
			reflect.DeepEqual(h.rec[2].lastGroupView(grpA), []ids.ProcessID{1, 2})
	}, "both members see group view {1,2}")

	// Non-member p3 sees no view events for the group.
	if len(h.rec[3].views(grpA)) != 0 {
		t.Error("non-member received group view events")
	}
	// GroupMembers agrees everywhere (directory is global knowledge).
	for _, pid := range h.pids {
		waitFor(t, 2*time.Second, func() bool {
			return reflect.DeepEqual(h.proc[pid].GroupMembers(grpA), []ids.ProcessID{1, 2})
		}, "directory convergence")
	}
}

func TestMulticastTotalOrder(t *testing.T) {
	h := newHarness(t, 3)
	h.waitConverged(1, 2, 3)
	for _, pid := range h.pids {
		if err := h.proc[pid].Join(grpA); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 20*time.Second, func() bool {
		return len(h.rec[1].lastGroupView(grpA)) == 3
	}, "group formed")

	// Three concurrent senders, interleaved.
	const per = 20
	var wg sync.WaitGroup
	for _, pid := range h.pids {
		wg.Add(1)
		go func(pid ids.ProcessID) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := h.proc[pid].Multicast(grpA, testMsg{K: pid.String(), N: i}); err != nil {
					t.Errorf("multicast: %v", err)
					return
				}
			}
		}(pid)
	}
	wg.Wait()

	total := per * len(h.pids)
	for _, pid := range h.pids {
		pid := pid
		waitFor(t, 20*time.Second, func() bool { return len(h.rec[pid].msgs(grpA)) == total },
			fmt.Sprintf("p%d delivers all %d", pid, total))
	}
	// Identical delivery sequence at every member (total order).
	ref := h.rec[1].msgs(grpA)
	for _, pid := range h.pids[1:] {
		if got := h.rec[pid].msgs(grpA); !reflect.DeepEqual(got, ref) {
			t.Fatalf("delivery order differs between p1 and p%d", pid)
		}
	}
	// Per-sender FIFO preserved inside the total order.
	for _, pid := range h.pids {
		last := -1
		for _, m := range ref {
			if m.K == pid.String() {
				if m.N != last+1 {
					t.Fatalf("sender %v FIFO violated: %d after %d", pid, m.N, last)
				}
				last = m.N
			}
		}
	}
}

func TestNonMemberCanMulticast(t *testing.T) {
	h := newHarness(t, 3)
	h.waitConverged(1, 2, 3)
	if err := h.proc[1].Join(grpA); err != nil {
		t.Fatal(err)
	}
	if err := h.proc[2].Join(grpA); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, func() bool { return len(h.rec[1].lastGroupView(grpA)) == 2 }, "group formed")

	// p3 is not a member but multicasts to the group (open groups).
	if err := h.proc[3].Multicast(grpA, testMsg{K: "outsider", N: 1}); err != nil {
		t.Fatal(err)
	}
	for _, pid := range []ids.ProcessID{1, 2} {
		pid := pid
		waitFor(t, 20*time.Second, func() bool { return len(h.rec[pid].msgs(grpA)) == 1 },
			"members deliver outsider message")
	}
	time.Sleep(50 * time.Millisecond)
	if len(h.rec[3].msgs(grpA)) != 0 {
		t.Error("non-member delivered its own group message")
	}
}

func TestCausalAcrossGroups(t *testing.T) {
	h := newHarness(t, 2)
	h.waitConverged(1, 2)
	for _, pid := range h.pids {
		for _, g := range []ids.GroupName{grpA, grpB} {
			if err := h.proc[pid].Join(g); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, 20*time.Second, func() bool {
		return len(h.rec[2].lastGroupView(grpA)) == 2 && len(h.rec[2].lastGroupView(grpB)) == 2
	}, "groups formed")

	// p1 alternates groups; receivers in both groups must observe the
	// cross-group send order.
	const rounds = 25
	for i := 0; i < rounds; i++ {
		if err := h.proc[1].Multicast(grpA, testMsg{K: "a", N: i}); err != nil {
			t.Fatal(err)
		}
		if err := h.proc[1].Multicast(grpB, testMsg{K: "b", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 20*time.Second, func() bool {
		return len(h.rec[2].msgs(grpA)) == rounds && len(h.rec[2].msgs(grpB)) == rounds
	}, "all delivered")

	// Check interleaving at p2: a(i) must precede b(i).
	h.rec[2].mu.Lock()
	pos := make(map[string]int)
	idx := 0
	for _, e := range h.rec[2].events {
		if me, ok := e.(MessageEvent); ok {
			if tm, ok := me.Payload.(testMsg); ok {
				pos[fmt.Sprintf("%s%d", tm.K, tm.N)] = idx
				idx++
			}
		}
	}
	h.rec[2].mu.Unlock()
	for i := 0; i < rounds; i++ {
		if pos[fmt.Sprintf("a%d", i)] > pos[fmt.Sprintf("b%d", i)] {
			t.Fatalf("causal violation: b%d delivered before a%d", i, i)
		}
	}
}

func TestJoinerDoesNotSeePreJoinMessages(t *testing.T) {
	h := newHarness(t, 3)
	h.waitConverged(1, 2, 3)
	if err := h.proc[1].Join(grpA); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, func() bool { return len(h.rec[1].lastGroupView(grpA)) == 1 }, "p1 in group")

	for i := 0; i < 10; i++ {
		if err := h.proc[1].Multicast(grpA, testMsg{K: "pre", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 20*time.Second, func() bool { return len(h.rec[1].msgs(grpA)) == 10 }, "pre-join messages delivered")

	if err := h.proc[2].Join(grpA); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, func() bool { return len(h.rec[2].lastGroupView(grpA)) == 2 }, "p2 joined")
	for i := 0; i < 5; i++ {
		if err := h.proc[1].Multicast(grpA, testMsg{K: "post", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 20*time.Second, func() bool { return len(h.rec[2].msgs(grpA)) == 5 }, "post-join messages delivered to joiner")
	for _, m := range h.rec[2].msgs(grpA) {
		if m.K == "pre" {
			t.Fatalf("joiner delivered pre-join message %+v", m)
		}
	}
}

func TestLeaveStopsDelivery(t *testing.T) {
	h := newHarness(t, 2)
	h.waitConverged(1, 2)
	for _, pid := range h.pids {
		if err := h.proc[pid].Join(grpA); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 20*time.Second, func() bool { return len(h.rec[2].lastGroupView(grpA)) == 2 }, "group formed")

	if err := h.proc[2].Leave(grpA); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, func() bool {
		vs := h.rec[1].views(grpA)
		return len(vs) > 0 && len(vs[len(vs)-1].View.Members) == 1
	}, "p1 sees p2 leave")
	// The leaver's final view excludes itself.
	waitFor(t, 20*time.Second, func() bool {
		vs := h.rec[2].views(grpA)
		return len(vs) > 0 && !vs[len(vs)-1].View.Contains(2)
	}, "p2's final view excludes itself")

	before := len(h.rec[2].msgs(grpA))
	if err := h.proc[1].Multicast(grpA, testMsg{K: "after-leave", N: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, func() bool { return len(h.rec[1].msgs(grpA)) == 1 }, "p1 delivers")
	time.Sleep(100 * time.Millisecond)
	if got := len(h.rec[2].msgs(grpA)); got != before {
		t.Errorf("leaver kept receiving group messages: %d new", got-before)
	}
}

func TestVirtualSynchronyOnCrash(t *testing.T) {
	// Kill the coordinator while a stream is in flight: the two survivors
	// must deliver identical message sets before their new view.
	h := newHarness(t, 3)
	h.waitConverged(1, 2, 3)
	for _, pid := range h.pids {
		if err := h.proc[pid].Join(grpA); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 20*time.Second, func() bool { return len(h.rec[2].lastGroupView(grpA)) == 3 }, "group formed")

	// p2 streams; p1 (coordinator) is crashed mid-stream.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 60; i++ {
			_ = h.proc[2].Multicast(grpA, testMsg{K: "s", N: i})
			time.Sleep(2 * time.Millisecond)
		}
	}()
	time.Sleep(40 * time.Millisecond)
	h.net.Crash(ids.ProcessEndpoint(1))
	<-done

	h.waitConverged(2, 3)
	waitFor(t, 20*time.Second, func() bool {
		return reflect.DeepEqual(h.rec[2].lastGroupView(grpA), []ids.ProcessID{2, 3}) &&
			reflect.DeepEqual(h.rec[3].lastGroupView(grpA), []ids.ProcessID{2, 3})
	}, "survivor group view {2,3}")

	// Give redelivery a moment to settle, then compare full sequences.
	waitFor(t, 20*time.Second, func() bool {
		return reflect.DeepEqual(h.rec[2].msgs(grpA), h.rec[3].msgs(grpA)) &&
			len(h.rec[2].msgs(grpA)) == 60
	}, "survivors deliver identical complete sequences")
}

func TestPartitionBothSidesProgress(t *testing.T) {
	h := newHarness(t, 4)
	h.waitConverged(1, 2, 3, 4)
	for _, pid := range h.pids {
		if err := h.proc[pid].Join(grpA); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 20*time.Second, func() bool { return len(h.rec[4].lastGroupView(grpA)) == 4 }, "group formed")

	h.net.Partition(h.eps(1, 2), h.eps(3, 4))
	h.waitConverged(1, 2)
	h.waitConverged(3, 4)
	waitFor(t, 20*time.Second, func() bool {
		return reflect.DeepEqual(h.rec[1].lastGroupView(grpA), []ids.ProcessID{1, 2}) &&
			reflect.DeepEqual(h.rec[3].lastGroupView(grpA), []ids.ProcessID{3, 4})
	}, "group views follow the partition")

	// Both sides keep multicasting independently.
	if err := h.proc[1].Multicast(grpA, testMsg{K: "side12", N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := h.proc[3].Multicast(grpA, testMsg{K: "side34", N: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, func() bool {
		find := func(r *recorder, k string) bool {
			for _, m := range r.msgs(grpA) {
				if m.K == k {
					return true
				}
			}
			return false
		}
		return find(h.rec[1], "side12") && find(h.rec[2], "side12") &&
			find(h.rec[3], "side34") && find(h.rec[4], "side34")
	}, "both sides deliver their own traffic")

	h.net.Heal()
	h.waitConverged(1, 2, 3, 4)
	waitFor(t, 20*time.Second, func() bool {
		for _, pid := range h.pids {
			if len(h.rec[pid].lastGroupView(grpA)) != 4 {
				return false
			}
		}
		return true
	}, "merged group view after heal")
}

func TestClientOpenGroupSendExactlyOnce(t *testing.T) {
	h := newHarness(t, 3)
	h.waitConverged(1, 2, 3)
	for _, pid := range h.pids {
		if err := h.proc[pid].Join(grpA); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 20*time.Second, func() bool { return len(h.rec[1].lastGroupView(grpA)) == 3 }, "group formed")

	cep, err := h.net.Attach(ids.ClientEndpoint(100))
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{Self: 100, Transport: cep, Servers: h.pids})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })

	members, err := client.Resolve(grpA)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if !reflect.DeepEqual(members, []ids.ProcessID{1, 2, 3}) {
		t.Fatalf("Resolve = %v", members)
	}

	const total = 15
	for i := 0; i < total; i++ {
		if err := client.SendToGroup(grpA, testMsg{K: "cli", N: i}); err != nil {
			t.Fatalf("SendToGroup: %v", err)
		}
	}
	for _, pid := range h.pids {
		pid := pid
		waitFor(t, 20*time.Second, func() bool { return len(h.rec[pid].msgs(grpA)) >= total },
			"members deliver client messages")
	}
	time.Sleep(100 * time.Millisecond)
	// Exactly once, in FIFO order, despite the 3-way fan-out.
	for _, pid := range h.pids {
		got := h.rec[pid].msgs(grpA)
		if len(got) != total {
			t.Fatalf("p%d delivered %d messages, want %d (duplicates?)", pid, len(got), total)
		}
		for i, m := range got {
			if m.N != i {
				t.Fatalf("p%d out of order: %+v at %d", pid, m, i)
			}
		}
	}
	// Sender recorded on the events is the client endpoint.
	h.rec[1].mu.Lock()
	for _, e := range h.rec[1].events {
		if me, ok := e.(MessageEvent); ok && me.Group == grpA {
			if c, ok := me.From.Client(); !ok || c != 100 {
				t.Errorf("From = %v, want client 100", me.From)
			}
		}
	}
	h.rec[1].mu.Unlock()
}

func TestClientResolveAfterCrashFollowsMembership(t *testing.T) {
	h := newHarness(t, 3)
	h.waitConverged(1, 2, 3)
	for _, pid := range h.pids {
		if err := h.proc[pid].Join(grpA); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 20*time.Second, func() bool { return len(h.rec[1].lastGroupView(grpA)) == 3 }, "group formed")

	cep, err := h.net.Attach(ids.ClientEndpoint(101))
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{Self: 101, Transport: cep, Servers: h.pids})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })

	h.net.Crash(ids.ProcessEndpoint(1))
	h.waitConverged(2, 3)
	waitFor(t, 20*time.Second, func() bool {
		members, err := client.Resolve(grpA)
		return err == nil && reflect.DeepEqual(members, []ids.ProcessID{2, 3})
	}, "client resolution reflects the crash")
}

func TestDirectMessages(t *testing.T) {
	h := newHarness(t, 2)
	h.waitConverged(1, 2)

	var mu sync.Mutex
	var got []wire.Message
	cep, err := h.net.Attach(ids.ClientEndpoint(102))
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{
		Self: 102, Transport: cep, Servers: h.pids,
		OnMessage: func(from ids.EndpointID, m wire.Message) {
			mu.Lock()
			defer mu.Unlock()
			got = append(got, m)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })

	// Server sends a point-to-point response to the client.
	if err := h.proc[1].Send(client.Endpoint(), testMsg{K: "resp", N: 7}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	}, "client receives response")
}

func TestProcessDirectHandler(t *testing.T) {
	h := newHarness(t, 1)
	var mu sync.Mutex
	var got []wire.Message
	// Rebuild p1 with an OnDirect handler: simplest is a second process.
	ep, err := h.net.Attach(ids.ProcessEndpoint(50))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcess(Config{
		Self: 50, Transport: ep, World: []ids.ProcessID{50},
		OnDirect: func(from ids.EndpointID, m wire.Message) {
			mu.Lock()
			defer mu.Unlock()
			got = append(got, m)
		},
		FDInterval: 10 * time.Millisecond, FDTimeout: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	t.Cleanup(p.Stop)

	cep, err := h.net.Attach(ids.ClientEndpoint(103))
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{Self: 103, Transport: cep, Servers: []ids.ProcessID{50}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	if err := client.Send(ids.ProcessEndpoint(50), testMsg{K: "req", N: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	}, "server receives direct request")
}

func TestLossyNetworkStillTotalOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy network test is slow")
	}
	h := &harness{
		t:          t,
		net:        memnet.New(memnet.Config{Loss: 0.05, Seed: 42, Latency: time.Millisecond, Jitter: 2 * time.Millisecond}),
		proc:       make(map[ids.ProcessID]*Process),
		rec:        make(map[ids.ProcessID]*recorder),
		slowTimers: true,
	}
	t.Cleanup(func() {
		for _, p := range h.proc {
			p.Stop()
		}
		h.net.Close()
	})
	h.pids = []ids.ProcessID{1, 2, 3}
	for _, pid := range h.pids {
		h.addProcess(pid)
	}
	h.waitConverged(1, 2, 3)
	for _, pid := range h.pids {
		if err := h.proc[pid].Join(grpA); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 30*time.Second, func() bool { return len(h.rec[1].lastGroupView(grpA)) == 3 }, "group formed")

	const total = 40
	for i := 0; i < total; i++ {
		if err := h.proc[2].Multicast(grpA, testMsg{K: "lossy", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	for _, pid := range h.pids {
		pid := pid
		waitFor(t, 20*time.Second, func() bool { return len(h.rec[pid].msgs(grpA)) >= total },
			fmt.Sprintf("p%d delivers all despite loss", pid))
	}
	ref := h.rec[1].msgs(grpA)
	for _, pid := range h.pids[1:] {
		if got := h.rec[pid].msgs(grpA); !reflect.DeepEqual(got[:total], ref[:total]) {
			t.Fatalf("order differs under loss between p1 and p%d", pid)
		}
	}
}
