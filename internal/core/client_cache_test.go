package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"hafw/internal/gcs"
	"hafw/internal/ids"
	"hafw/internal/metrics"
	"hafw/internal/testutil"
)

// echoSession opens a session whose responses land in the returned sink.
func echoSession(t *testing.T, c *Client) (*ClientSession, *respSink) {
	t.Helper()
	sink := &respSink{arrived: make(chan struct{}, 1)}
	sess, err := c.StartSession(unitU, sink.handler)
	if err != nil {
		t.Fatal(err)
	}
	return sess, sink
}

// call sends one echo request and waits for its response.
func call(t *testing.T, sess *ClientSession, sink *respSink, s string) {
	t.Helper()
	if err := sess.Send(updReq{S: s, Echo: true}); err != nil {
		t.Fatalf("Send(%s): %v", s, err)
	}
	select {
	case <-sink.arrived:
	case <-time.After(10 * time.Second * testutil.TimeScale):
		t.Fatalf("no response to %s", s)
	}
}

// sentOf sums the world's send counters over the given message types.
func sentOf(reg *metrics.Registry, types ...string) uint64 {
	var n uint64
	for _, typ := range types {
		n += reg.CounterVec(`transport_send_total{type=%q}`).With(typ).Value()
	}
	return n
}

// TestRequestPathEnvelopeBudget pins the steady request path to what the
// paper's protocol needs — the client's fan-out, one sequenced delivery to
// the backup, one response — by counting envelopes, which repeat from run
// to run where wall-clock numbers do not. Only the message types a request
// can cause are counted; heartbeats, acks and stability run on timers.
func TestRequestPathEnvelopeBudget(t *testing.T) {
	sent := metrics.NewRegistry()
	w := newCountedWorld(t, 3, 1, time.Hour, sent) // no propagation: nothing but requests multicasts
	w.waitReady()
	c := w.newClient(100)

	t.Run("steady", func(t *testing.T) {
		const requests = 2000
		s1, k1 := echoSession(t, c)
		s2, k2 := echoSession(t, c)
		call(t, s1, k1, "warm")
		call(t, s2, k2, "warm")

		path := []string{"vsync.ClientSend", "vsync.Data", "vsync.DataAck", "vsync.SeqData", "core.Response"}
		path0 := sentOf(sent, path...)
		fwd0 := sentOf(sent, "vsync.Data", "vsync.DataAck")
		res0 := sentOf(sent, "vsync.Resolve") + c.Stats().Reresolves
		start := time.Now()
		for i := 0; i < requests/2; i++ {
			call(t, s1, k1, "a")
			call(t, s2, k2, "b")
		}
		elapsed := time.Since(start)
		perReq := func(n uint64) float64 { return float64(n) / requests }

		got := perReq(sentOf(sent, path...) - path0)
		t.Logf("%d requests in %v: %.3f envelopes each", requests, elapsed, got)
		if got > 4.5 {
			t.Errorf("%.3f envelopes per request, budget 4.5 (2 ClientSend + SeqData + Response)", got)
		}
		if got := perReq(sentOf(sent, "vsync.Data", "vsync.DataAck") - fwd0); got > 0.05 {
			t.Errorf("%.3f Data+DataAck per request, budget 0.05: members forward copies the sequencer has", got)
		}
		// The only resolves left are the background refreshes, one per
		// session per cache TTL (250ms), however many requests that spans.
		refreshes := 2 * uint64(elapsed/(250*time.Millisecond)+1)
		if got := sentOf(sent, "vsync.Resolve") + c.Stats().Reresolves - res0; got > requests/100+refreshes {
			t.Errorf("%d resolves for %d requests in %v, budget 0.01 per request plus %d refreshes", got, requests, elapsed, refreshes)
		}
	})

	t.Run("lifecycle", func(t *testing.T) {
		const lifecycles = 200
		res0 := sentOf(sent, "vsync.Resolve") + c.Stats().Reresolves
		for i := 0; i < lifecycles; i++ {
			sess, sink := echoSession(t, c)
			for j := 0; j < 4; j++ {
				call(t, sess, sink, "x")
			}
			if err := sess.End(); err != nil {
				t.Fatalf("lifecycle %d: End: %v", i, err)
			}
		}
		if got := sentOf(sent, "vsync.Resolve") + c.Stats().Reresolves - res0; got > lifecycles {
			t.Errorf("%d resolves for %d start/4-send/end lifecycles, budget 1 each", got, lifecycles)
		}
	})
}

// TestClientCacheFollowsLiveSessions checks that what the client remembers
// about groups is bounded by the sessions it has open, not by the sessions
// it ever opened.
func TestClientCacheFollowsLiveSessions(t *testing.T) {
	w := newWorld(t, 3, 1, time.Hour)
	w.waitReady()
	c := w.newClient(100)
	keep, keepSink := echoSession(t, c) // one session stays open throughout
	for i := 0; i < 1000; i++ {
		sess, sink := echoSession(t, c)
		for j := 0; j < 4; j++ {
			call(t, sess, sink, "x")
		}
		if err := sess.End(); err != nil {
			t.Fatalf("cycle %d: End: %v", i, err)
		}
	}
	call(t, keep, keepSink, "still here")
	// The content group, the open session's group, and nothing else.
	if cached, awaited := c.g.Known(); cached > 2 || awaited != 0 {
		t.Fatalf("after 1000 ended sessions: %d groups cached, %d awaited; want at most 2 and 0", cached, awaited)
	}
}

// TestSendsSurviveBootstrapCrash: with the first bootstrap server down, an
// open session keeps sending without waiting on it.
func TestSendsSurviveBootstrapCrash(t *testing.T) {
	w := newWorld(t, 3, 1, 50*time.Millisecond)
	w.waitReady()
	c := w.newClient(100)
	sess, sink := echoSession(t, c)
	call(t, sess, sink, "before")

	w.net.Crash(ids.ProcessEndpoint(w.pids[0]))
	var inSend time.Duration
	for i := 0; i < 100; i++ {
		start := time.Now()
		if err := sess.Send(updReq{S: fmt.Sprintf("s%d", i), Echo: true}); err != nil {
			t.Fatalf("send %d with the bootstrap server down: %v", i, err)
		}
		inSend += time.Since(start)
		time.Sleep(5 * time.Millisecond) // spans two cache TTLs: refreshes come due
	}
	if limit := 150 * time.Millisecond; inSend > limit {
		t.Fatalf("100 sends spent %v inside Send, want at most one resolve timeout (%v) in total", inSend, limit)
	}
	// Whoever serves the session now (the crash may have taken its primary)
	// answers again.
	before := sink.count()
	waitFor(t, 30*time.Second, func() bool {
		if err := sess.Send(updReq{S: "after", Echo: true}); err != nil {
			return false
		}
		time.Sleep(20 * time.Millisecond)
		return sink.count() > before
	}, "responses resume with the bootstrap server down")
}

// newFrozenClient is a client whose resolved memberships never age: only
// evidence (a stranger answering) or a retry can change what it sends to.
func (w *world) newFrozenClient(cid ids.ClientID) *Client {
	w.t.Helper()
	c := w.newClient(cid)
	g, err := gcs.NewClient(gcs.ClientConfig{
		Self: cid, Transport: c.cfg.Transport, Servers: w.pids,
		OnMessage: c.onMessage, Clock: testutil.NewFrozenClock(),
	})
	if err != nil {
		w.t.Fatal(err)
	}
	c.g = g
	return c
}

func TestFrozenCacheSurvivesPrimaryCrash(t *testing.T) {
	w := newWorld(t, 3, 1, 50*time.Millisecond)
	w.waitReady()
	c := w.newFrozenClient(100)
	sess, sink := echoSession(t, c)
	for i := 0; i < 20; i++ {
		call(t, sess, sink, "pre")
	}
	primary := w.servers[1].PrimaryOf(unitU, sess.ID)
	w.net.Crash(ids.ProcessEndpoint(primary))

	// The client still fans out to the dead primary and the old backup;
	// the backup takes over and answers.
	before := sink.count()
	waitFor(t, 30*time.Second, func() bool {
		if err := sess.Send(updReq{S: "post", Echo: true}); err != nil {
			t.Fatalf("Send after the crash: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
		return sink.count() > before
	}, "responses resume after the primary crash")
	if n := c.Stats().Reresolves; n != 0 {
		t.Fatalf("%d invalidations: sends must not drop the membership", n)
	}
}

func TestFrozenCacheFollowsHandoffToOutsider(t *testing.T) {
	w := newWorld(t, 2, 0, time.Hour)
	w.waitReady()
	c := w.newFrozenClient(100)
	type open struct {
		sess *ClientSession
		sink *respSink
	}
	var sessions []open
	for i := 0; i < 6; i++ {
		sess, sink := echoSession(t, c)
		call(t, sess, sink, "pre")
		sessions = append(sessions, open{sess, sink})
	}

	// A third server joins and rebalancing hands it some sessions: their
	// new primary is outside what the client cached at session start.
	w.pids = append(w.pids, 3)
	w.addServer(3)
	w.servers[1].AddPeer(3)
	w.servers[2].AddPeer(3)
	var moved *open
	waitFor(t, 30*time.Second, func() bool {
		for i := range sessions {
			if w.servers[1].PrimaryOf(unitU, sessions[i].sess.ID) == 3 {
				moved = &sessions[i]
				return true
			}
		}
		return false
	}, "a session migrated to the joiner")

	// The old primary, no longer a member, relays the stale fan-out; the
	// joiner answers, and its answers teach the client the new membership.
	before := moved.sink.count()
	waitFor(t, 30*time.Second, func() bool {
		if err := moved.sess.Send(updReq{S: "post", Echo: true}); err != nil {
			t.Fatalf("Send after the hand-off: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
		return moved.sink.count() > before
	}, "responses resume from the new primary")
	waitFor(t, 30*time.Second, func() bool {
		if err := moved.sess.Send(updReq{S: "probe", Echo: true}); err != nil {
			return false
		}
		time.Sleep(20 * time.Millisecond)
		m, _ := c.g.Resolve(moved.sess.Group)
		return reflect.DeepEqual(m, []ids.ProcessID{3})
	}, "client learned the session group moved to the joiner")
}
