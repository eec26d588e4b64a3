package gcs

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"hafw/internal/ids"
	"hafw/internal/testutil"
	"hafw/internal/transport/memnet"
	"hafw/internal/vsync"
	"hafw/internal/wire"
)

func TestClientValidation(t *testing.T) {
	net := memnet.New(memnet.Config{})
	defer net.Close()
	ep, err := net.Attach(ids.ClientEndpoint(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(ClientConfig{Transport: ep}); err == nil {
		t.Fatal("NewClient without Self should fail")
	}
	if _, err := NewClient(ClientConfig{Self: 1}); err == nil {
		t.Fatal("NewClient without Transport should fail")
	}
}

func TestResolveNoServers(t *testing.T) {
	net := memnet.New(memnet.Config{})
	defer net.Close()
	ep, err := net.Attach(ids.ClientEndpoint(1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{Self: 1, Transport: ep})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Resolve("g"); !errors.Is(err, ErrNoServers) {
		t.Fatalf("err = %v, want ErrNoServers", err)
	}
	if err := c.SendToGroup("g", testMsg{}); !errors.Is(err, ErrNoServers) {
		t.Fatalf("SendToGroup err = %v", err)
	}
}

func TestResolveUnreachableServersTimesOut(t *testing.T) {
	net := memnet.New(memnet.Config{})
	defer net.Close()
	ep, err := net.Attach(ids.ClientEndpoint(1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{
		Self: 1, Transport: ep,
		Servers: []ids.ProcessID{7, 8}, // nobody home
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Resolve("g")
	if !errors.Is(err, ErrNoServers) {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed < 2*resolveTimeout {
		t.Fatalf("gave up too fast (%v): must try each server", elapsed)
	}
}

func TestResolveCacheAndInvalidate(t *testing.T) {
	h := newHarness(t, 2)
	h.waitConverged(1, 2)
	if err := h.proc[1].Join(grpA); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, func() bool {
		return len(h.proc[2].GroupMembers(grpA)) == 1
	}, "directory propagation")

	cep, err := h.net.Attach(ids.ClientEndpoint(300))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{Self: 300, Transport: cep, Servers: h.pids, Clock: testutil.NewFrozenClock()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	m1, err := c.Resolve(grpA)
	if err != nil {
		t.Fatal(err)
	}
	// Membership changes, but the cache, which never ages, hides it.
	if err := h.proc[2].Join(grpA); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, func() bool {
		return len(h.proc[1].GroupMembers(grpA)) == 2
	}, "join lands")
	m2, err := c.Resolve(grpA)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("cache should have answered: %v vs %v", m1, m2)
	}
	// Invalidate forces a fresh answer.
	c.Invalidate(grpA)
	m3, err := c.Resolve(grpA)
	if err != nil {
		t.Fatal(err)
	}
	if len(m3) != 2 {
		t.Fatalf("fresh resolve = %v, want 2 members", m3)
	}
}

func TestSetServers(t *testing.T) {
	h := newHarness(t, 2)
	h.waitConverged(1, 2)
	if err := h.proc[2].Join(grpA); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, func() bool {
		return len(h.proc[2].GroupMembers(grpA)) == 1
	}, "group formed")

	cep, err := h.net.Attach(ids.ClientEndpoint(301))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{
		Self: 301, Transport: cep,
		Servers: []ids.ProcessID{99}, // bogus bootstrap
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if _, err := c.Resolve(grpA); err == nil {
		t.Fatal("bogus bootstrap should fail")
	}
	c.SetServers(h.pids)
	if _, err := c.Resolve(grpA); err != nil {
		t.Fatalf("after SetServers: %v", err)
	}
}

// fakeServer attaches an endpoint for process p that answers a Resolve of
// a group named g... with members (nil: the empty answer of a server that
// has not rejoined) and of any other group with nobody, and counts the
// questions.
func fakeServer(t *testing.T, net *memnet.Network, p ids.ProcessID, members []ids.ProcessID) *atomic.Int64 {
	t.Helper()
	ep, err := net.Attach(ids.ProcessEndpoint(p))
	if err != nil {
		t.Fatal(err)
	}
	asked := new(atomic.Int64)
	ep.SetHandler(func(env wire.Envelope) {
		if r, ok := env.Payload.(vsync.Resolve); ok {
			asked.Add(1)
			reply := vsync.ResolveReply{Group: r.Group}
			if r.Group[0] == 'g' {
				reply.Members = members
			}
			_ = ep.Send(env.From, reply)
		}
	})
	return asked
}

func newFakeClient(t *testing.T, net *memnet.Network, cfg ClientConfig) *Client {
	t.Helper()
	ep, err := net.Attach(ids.ClientEndpoint(cfg.Self))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Transport = ep
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestEmptyAnswerMovesOnAndIsNotCached(t *testing.T) {
	net := memnet.New(memnet.Config{})
	defer net.Close()
	rejoining := fakeServer(t, net, 1, nil)
	settled := fakeServer(t, net, 2, []ids.ProcessID{2, 3})
	c := newFakeClient(t, net, ClientConfig{Self: 1, Servers: []ids.ProcessID{1, 2}})

	start := time.Now()
	m, err := c.Resolve("g")
	if err != nil || !reflect.DeepEqual(m, []ids.ProcessID{2, 3}) {
		t.Fatalf("Resolve = %v, %v; want the second server's answer", m, err)
	}
	if elapsed := time.Since(start); elapsed >= resolveTimeout {
		t.Fatalf("took %v: an empty answer must move on at once, not wait out resolveTimeout", elapsed)
	}
	// The server that answered is asked first from now on.
	c.Invalidate("g")
	if _, err := c.Resolve("g"); err != nil {
		t.Fatal(err)
	}
	if a, b := rejoining.Load(), settled.Load(); a != 1 || b != 2 {
		t.Fatalf("questions: rejoining server %d, settled server %d; want 1 and 2", a, b)
	}
	// Every server answering empty is an answer, not an error; nothing of
	// it stays behind.
	if m, err := c.Resolve("nobody"); err != nil || len(m) != 0 {
		t.Fatalf("Resolve(empty group) = %v, %v", m, err)
	}
	if err := c.SendToGroup("nobody", testMsg{}); !errors.Is(err, ErrNoServers) {
		t.Fatalf("SendToGroup(empty group) err = %v", err)
	}
	if cached, awaited := c.Known(); cached != 1 || awaited != 0 {
		t.Fatalf("cached=%d awaited=%d, want 1 and 0", cached, awaited)
	}
}

func TestDeadBootstrapServerCostsOneTimeout(t *testing.T) {
	net := memnet.New(memnet.Config{})
	defer net.Close()
	alive := fakeServer(t, net, 2, []ids.ProcessID{2})
	c := newFakeClient(t, net, ClientConfig{Self: 1, Servers: []ids.ProcessID{1, 2}})

	start := time.Now()
	for i := 0; i < 20; i++ {
		g := ids.GroupName(fmt.Sprintf("g%d", i))
		if _, err := c.Resolve(g); err != nil {
			t.Fatalf("Resolve(%s): %v", g, err)
		}
	}
	if elapsed := time.Since(start); elapsed < resolveTimeout || elapsed > 2*resolveTimeout {
		t.Fatalf("20 fresh groups took %v, want one %v timeout at the dead server in total", elapsed, resolveTimeout)
	}
	if alive.Load() != 20 {
		t.Fatalf("live server asked %d times, want 20", alive.Load())
	}
}

func TestStaleEntryIsUsedAndRefreshedInBackground(t *testing.T) {
	net := memnet.New(memnet.Config{})
	defer net.Close()
	// The preferred server is dead; the other knows the group moved.
	moved := fakeServer(t, net, 2, []ids.ProcessID{3})
	c := newFakeClient(t, net, ClientConfig{Self: 1, Servers: []ids.ProcessID{1, 2}})
	c.Learn("g", []ids.ProcessID{2})

	deadline := time.Now().Add(5 * time.Second)
	for n := 0; ; n++ {
		start := time.Now()
		m, err := c.Resolve("g")
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > resolveTimeout/2 {
			t.Fatalf("Resolve of a known group took %v: it must never wait for a server", d)
		}
		if reflect.DeepEqual(m, []ids.ProcessID{3}) {
			break
		}
		if !reflect.DeepEqual(m, []ids.ProcessID{2}) {
			t.Fatalf("Resolve = %v, want the old or the new membership", m)
		}
		if time.Now().After(deadline) {
			t.Fatal("the refreshed membership never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	// One unanswered request at the dead server, then the live one: not a
	// request per send.
	if n := moved.Load(); n != 1 {
		t.Fatalf("live server asked %d times during the refresh, want 1", n)
	}
	// A forgotten group stays forgotten when a late answer comes in.
	c.Forget("g")
	c.route(wire.Envelope{From: ids.ProcessEndpoint(2), Payload: vsync.ResolveReply{Group: "g", Members: []ids.ProcessID{3}}})
	if cached, _ := c.Known(); cached != 0 {
		t.Fatalf("late answer resurrected a forgotten group (cached=%d)", cached)
	}
}

func TestObserveStrangerRequestsRefresh(t *testing.T) {
	net := memnet.New(memnet.Config{})
	defer net.Close()
	srv := fakeServer(t, net, 1, []ids.ProcessID{3})
	c := newFakeClient(t, net, ClientConfig{Self: 1, Servers: []ids.ProcessID{1}, Clock: testutil.NewFrozenClock()})
	c.Learn("g", []ids.ProcessID{2})

	c.Observe("g", 2) // a member answered: nothing to learn
	c.Observe("h", 9) // unknown group: nothing to refresh
	time.Sleep(20 * time.Millisecond)
	if srv.Load() != 0 {
		t.Fatalf("asked %d times without evidence", srv.Load())
	}
	for i := 0; i < 50; i++ {
		c.Observe("g", 3) // a burst of responses from outside the cached set
	}
	waitFor(t, 5*time.Second, func() bool {
		m, _ := c.Resolve("g")
		return reflect.DeepEqual(m, []ids.ProcessID{3})
	}, "membership refreshed after a stranger answered")
	if srv.Load() != 1 {
		t.Fatalf("asked %d times for one burst of evidence, want 1", srv.Load())
	}
}
