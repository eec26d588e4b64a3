package vsync

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"hafw/internal/ids"
	"hafw/internal/membership"
	"hafw/internal/testutil"
	"hafw/internal/wire"
)

type testPayload struct {
	N int
}

func (testPayload) WireName() string { return "vsynctest.payload" }

func init() { wire.Register(testPayload{}) }

// fakeSender records outbound messages.
type fakeSender struct {
	mu   sync.Mutex
	sent []wire.Envelope
}

func (f *fakeSender) Send(to ids.EndpointID, m wire.Message) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sent = append(f.sent, wire.Envelope{To: to, Payload: m})
	return nil
}

func (f *fakeSender) count(pred func(wire.Envelope) bool) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, e := range f.sent {
		if pred(e) {
			n++
		}
	}
	return n
}

// eventSink accumulates delivered events.
type eventSink struct {
	mu     sync.Mutex
	events []Event
	// counting, once set, makes the sink count messages instead of
	// keeping them, and drop view events.
	counting bool
	counts   map[ids.GroupName]int
}

func (s *eventSink) on(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.counting {
		if me, ok := e.(MessageEvent); ok {
			s.counts[me.Group]++
		}
		return
	}
	s.events = append(s.events, e)
}

// countOnly switches the sink to counting messages and dropping views,
// for tests that deliver too many to keep.
func (s *eventSink) countOnly() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counting = true
	s.counts = make(map[ids.GroupName]int)
}

// delivered is the number of messages counted for g since countOnly.
func (s *eventSink) delivered(g ids.GroupName) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[g]
}

func (s *eventSink) messages(g ids.GroupName) []MessageEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []MessageEvent
	for _, e := range s.events {
		if me, ok := e.(MessageEvent); ok && me.Group == g {
			out = append(out, me)
		}
	}
	return out
}

func (s *eventSink) views(g ids.GroupName) []ViewEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []ViewEvent
	for _, e := range s.events {
		if ve, ok := e.(ViewEvent); ok && ve.View.Group == g {
			out = append(out, ve)
		}
	}
	return out
}

func newTestNode(t *testing.T, self ids.ProcessID) (*Node, *fakeSender, *eventSink) {
	t.Helper()
	fs := &fakeSender{}
	sink := &eventSink{}
	n := New(Config{
		Self:        self,
		Send:        fs,
		OnEvent:     sink.on,
		AckInterval: 5 * time.Millisecond,
	})
	n.Start()
	t.Cleanup(n.Stop)
	return n, fs, sink
}

func waitSink(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second * testutil.TimeScale)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %s", msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

const tg ids.GroupName = "g"

func TestSingletonSelfDelivery(t *testing.T) {
	n, _, sink := newTestNode(t, 1)
	if err := n.Join(tg); err != nil {
		t.Fatal(err)
	}
	waitSink(t, func() bool { return len(sink.views(tg)) == 1 }, "join view")
	if got := sink.views(tg)[0].View.Members; !reflect.DeepEqual(got, []ids.ProcessID{1}) {
		t.Fatalf("view members = %v", got)
	}
	for i := 0; i < 3; i++ {
		if err := n.Multicast(tg, testPayload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	waitSink(t, func() bool { return len(sink.messages(tg)) == 3 }, "self delivery")
	for i, me := range sink.messages(tg) {
		if me.Payload.(testPayload).N != i {
			t.Fatalf("out of order: %v", sink.messages(tg))
		}
		if me.Seq != uint64(i+2) { // seq 1 was the join announcement? no: joins ride DirGroup; seq starts at 1
			// Group sequence numbers for tg start at 1.
			if me.Seq != uint64(i+1) {
				t.Fatalf("unexpected seq %d for message %d", me.Seq, i)
			}
		}
	}
}

func TestGroupViewIDOrdering(t *testing.T) {
	a := GroupViewID{PV: ids.ViewID{Epoch: 1, Coord: 1}, N: 2}
	b := GroupViewID{PV: ids.ViewID{Epoch: 1, Coord: 1}, N: 3}
	c := GroupViewID{PV: ids.ViewID{Epoch: 2, Coord: 1}, N: 1}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Fatal("GroupViewID ordering broken")
	}
	if !(GroupViewID{}).IsZero() || a.IsZero() {
		t.Fatal("IsZero broken")
	}
	if a.String() == "" {
		t.Fatal("String broken")
	}
}

func TestGroupViewContains(t *testing.T) {
	gv := GroupView{Members: []ids.ProcessID{1, 3}}
	if !gv.Contains(1) || gv.Contains(2) {
		t.Fatal("Contains broken")
	}
}

func TestDiffMembers(t *testing.T) {
	j, l := diffMembers([]ids.ProcessID{1, 2}, []ids.ProcessID{2, 3})
	if !reflect.DeepEqual(j, []ids.ProcessID{3}) || !reflect.DeepEqual(l, []ids.ProcessID{1}) {
		t.Fatalf("diff = %v, %v", j, l)
	}
	j, l = diffMembers(nil, nil)
	if j != nil || l != nil {
		t.Fatal("empty diff should be nil")
	}
}

func TestLeaveEmitsFinalViewAndStopsDelivery(t *testing.T) {
	n, _, sink := newTestNode(t, 1)
	if err := n.Join(tg); err != nil {
		t.Fatal(err)
	}
	waitSink(t, func() bool { return len(sink.views(tg)) == 1 }, "join view")
	if err := n.Leave(tg); err != nil {
		t.Fatal(err)
	}
	waitSink(t, func() bool { return len(sink.views(tg)) == 2 }, "leave view")
	final := sink.views(tg)[1]
	if final.View.Contains(1) {
		t.Fatal("final view must exclude the leaver")
	}
	if !reflect.DeepEqual(final.Left, []ids.ProcessID{1}) {
		t.Fatalf("Left = %v", final.Left)
	}
	// Multicasts after leaving are not delivered locally.
	if err := n.Multicast(tg, testPayload{N: 9}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if len(sink.messages(tg)) != 0 {
		t.Fatal("message delivered to a non-member")
	}
}

func TestClientSendDeliveredOnceWithClientSource(t *testing.T) {
	n, _, sink := newTestNode(t, 1)
	if err := n.Join(tg); err != nil {
		t.Fatal(err)
	}
	waitSink(t, func() bool { return len(sink.views(tg)) == 1 }, "join view")

	cid := ids.ClientEndpoint(50)
	cs := ClientSend{Group: tg, ID: ids.MsgID{Sender: cid, Seq: 1}, Payload: testPayload{N: 7}}
	// Fan-out duplicates: the same ClientSend arrives twice (two members
	// forwarded it). Exactly one delivery.
	n.Handle(cid, cs)
	n.Handle(cid, cs)
	waitSink(t, func() bool { return len(sink.messages(tg)) >= 1 }, "client message")
	time.Sleep(30 * time.Millisecond)
	msgs := sink.messages(tg)
	if len(msgs) != 1 {
		t.Fatalf("delivered %d times, want once", len(msgs))
	}
	if msgs[0].From != cid {
		t.Fatalf("From = %v, want client", msgs[0].From)
	}
}

func TestResolveReply(t *testing.T) {
	n, fs, sink := newTestNode(t, 1)
	if err := n.Join(tg); err != nil {
		t.Fatal(err)
	}
	waitSink(t, func() bool { return len(sink.views(tg)) == 1 }, "join view")
	client := ids.ClientEndpoint(60)
	n.Handle(client, Resolve{Group: tg})
	if fs.count(func(e wire.Envelope) bool {
		r, ok := e.Payload.(ResolveReply)
		return ok && e.To == client && len(r.Members) == 1
	}) != 1 {
		t.Fatal("no ResolveReply sent to the client")
	}
}

// puppetView installs a two-member view on the node via its membership
// hooks, making the OTHER process the coordinator so receiver-side logic
// can be driven with forged SeqData.
func puppetView(t *testing.T, n *Node, self, other ids.ProcessID) membership.View {
	t.Helper()
	v := membership.NewView(ids.ViewID{Epoch: 5, Coord: other}, []ids.ProcessID{self, other})
	n.Block()
	n.Install(v, map[ids.ProcessID][]byte{self: n.Collect()})
	return v
}

func TestDSeqGapBuffering(t *testing.T) {
	n, _, sink := newTestNode(t, 2)
	if err := n.Join(tg); err != nil {
		t.Fatal(err)
	}
	waitSink(t, func() bool { return len(sink.views(tg)) == 1 }, "join view")
	v := puppetView(t, n, 2, 1)

	coord := ids.ProcessEndpoint(1)
	mk := func(dseq, seq uint64, nn int) SeqData {
		return SeqData{
			VID: v.ID, Group: tg, Seq: seq, DSeq: dseq,
			ID:      ids.MsgID{Sender: coord, Seq: uint64(nn)},
			From:    coord,
			Payload: testPayload{N: nn},
		}
	}
	// Out of order: dseq 2 then 1. Nothing delivers until 1 arrives.
	n.Handle(coord, mk(2, 2, 2))
	time.Sleep(20 * time.Millisecond)
	if len(sink.messages(tg)) != 0 {
		t.Fatal("gap not held back")
	}
	n.Handle(coord, mk(1, 1, 1))
	waitSink(t, func() bool { return len(sink.messages(tg)) == 2 }, "both delivered")
	got := sink.messages(tg)
	if got[0].Payload.(testPayload).N != 1 || got[1].Payload.(testPayload).N != 2 {
		t.Fatalf("order = %v", got)
	}
}

func TestStaleViewSeqDataDiscarded(t *testing.T) {
	n, _, sink := newTestNode(t, 2)
	if err := n.Join(tg); err != nil {
		t.Fatal(err)
	}
	waitSink(t, func() bool { return len(sink.views(tg)) == 1 }, "join view")
	v := puppetView(t, n, 2, 1)

	coord := ids.ProcessEndpoint(1)
	stale := SeqData{
		VID:   ids.ViewID{Epoch: 1, Coord: 9}, // not the current view
		Group: tg, Seq: 1, DSeq: 1,
		ID:      ids.MsgID{Sender: coord, Seq: 1},
		From:    coord,
		Payload: testPayload{N: 1},
	}
	n.Handle(coord, stale)
	time.Sleep(20 * time.Millisecond)
	if len(sink.messages(tg)) != 0 {
		t.Fatalf("stale-view message delivered (view %v)", v.ID)
	}
}

func TestMessagesOfNextViewWaitForInstall(t *testing.T) {
	// A peer that installed the next view first is already sending in it.
	// Its messages are held, not dropped, and handled once this process
	// installs the view too — no retry, no NACK.
	next := membership.NewView(ids.ViewID{Epoch: 5, Coord: 1}, []ids.ProcessID{1, 2})
	joinGroup := func(n *Node, sink *eventSink) {
		t.Helper()
		if err := n.Join(tg); err != nil {
			t.Fatal(err)
		}
		waitSink(t, func() bool { return len(sink.views(tg)) == 1 }, "join view")
	}

	t.Run("Data at the coordinator-to-be", func(t *testing.T) {
		n, fs, sink := newTestNode(t, 1)
		joinGroup(n, sink)
		peer := ids.ProcessEndpoint(2)
		n.Handle(peer, Data{
			VID: next.ID, SendSeq: 1, ID: ids.MsgID{Sender: peer, Seq: 1},
			Group: tg, From: peer, Payload: testPayload{N: 1},
		})
		if len(sink.messages(tg)) != 0 {
			t.Fatal("sequenced a message of a view not installed yet")
		}
		n.Block()
		n.Install(next, map[ids.ProcessID][]byte{1: n.Collect()})
		waitSink(t, func() bool { return len(sink.messages(tg)) == 1 }, "held Data sequenced at install")
		if fs.count(func(e wire.Envelope) bool { _, ok := e.Payload.(DataAck); return ok && e.To == peer }) != 1 {
			t.Fatal("held Data was not acknowledged to its sender")
		}
	})

	t.Run("SeqData at a member", func(t *testing.T) {
		n, fs, sink := newTestNode(t, 2)
		joinGroup(n, sink)
		coord := ids.ProcessEndpoint(1)
		n.Handle(coord, SeqData{
			VID: next.ID, Group: tg, Seq: 1, DSeq: 1,
			ID: ids.MsgID{Sender: coord, Seq: 1}, From: coord, Payload: testPayload{N: 1},
		})
		if len(sink.messages(tg)) != 0 {
			t.Fatal("delivered a message of a view not installed yet")
		}
		n.Block()
		n.Install(next, map[ids.ProcessID][]byte{2: n.Collect()})
		waitSink(t, func() bool { return len(sink.messages(tg)) == 1 }, "held SeqData delivered at install")
		if fs.count(func(e wire.Envelope) bool { _, ok := e.Payload.(Nack); return ok }) != 0 {
			t.Fatal("member had to NACK a message it was already sent")
		}
		// The group view of the new process view precedes the message.
		var sawView bool
		sink.mu.Lock()
		for _, e := range sink.events {
			if ve, ok := e.(ViewEvent); ok && ve.View.ID.PV == next.ID {
				sawView = true
			}
			if _, ok := e.(MessageEvent); ok && !sawView {
				t.Error("message of the new view delivered before its group view")
			}
		}
		sink.mu.Unlock()
	})
}

func TestBlockedDeliveryFreezesUntilInstall(t *testing.T) {
	n, _, sink := newTestNode(t, 2)
	if err := n.Join(tg); err != nil {
		t.Fatal(err)
	}
	waitSink(t, func() bool { return len(sink.views(tg)) == 1 }, "join view")
	v := puppetView(t, n, 2, 1)

	coord := ids.ProcessEndpoint(1)
	n.Block()
	sd := SeqData{
		VID: v.ID, Group: tg, Seq: 1, DSeq: 1,
		ID:      ids.MsgID{Sender: coord, Seq: 1},
		From:    coord,
		Payload: testPayload{N: 42},
	}
	n.Handle(coord, sd)
	time.Sleep(20 * time.Millisecond)
	if len(sink.messages(tg)) != 0 {
		t.Fatal("delivered while blocked")
	}
	// The buffered message is in the collected state and delivered by the
	// flush at install, exactly once.
	blob := n.Collect()
	v2 := membership.NewView(ids.ViewID{Epoch: 6, Coord: 2}, []ids.ProcessID{2})
	n.Install(v2, map[ids.ProcessID][]byte{2: blob})
	waitSink(t, func() bool { return len(sink.messages(tg)) == 1 }, "flush delivery")
	if got := sink.messages(tg)[0].Payload.(testPayload).N; got != 42 {
		t.Fatalf("payload = %d", got)
	}
}

func TestFlushedClientCopyNotResentFromBlockedQueue(t *testing.T) {
	// A client's fan-out straddles a view change: one server took its copy
	// before the freeze (it travels in that server's flush state), this one
	// during it (it waits in blockedQ). One delivery, not two.
	n, _, sink := newTestNode(t, 1)
	if err := n.Join(tg); err != nil {
		t.Fatal(err)
	}
	waitSink(t, func() bool { return len(sink.views(tg)) == 1 }, "join view")
	old := n.View().ID
	n.Block()
	mine := n.Collect()
	client, cs := clientSend(1, 7)
	n.Handle(client, cs)
	theirs, err := wire.EncodeMessage(flushState{
		VID:     old,
		Pending: []Data{{ID: cs.ID, Group: tg, From: client, Payload: cs.Payload}},
	})
	if err != nil {
		t.Fatal(err)
	}
	v2 := membership.NewView(ids.ViewID{Epoch: 7, Coord: 1}, []ids.ProcessID{1, 2})
	n.Install(v2, map[ids.ProcessID][]byte{1: mine, 2: theirs})
	waitSink(t, func() bool { return len(sink.messages(tg)) >= 1 }, "flush delivery")
	time.Sleep(30 * time.Millisecond)
	if got := len(sink.messages(tg)); got != 1 {
		t.Fatalf("delivered %d times, want once", got)
	}
}

func TestBlockedMulticastReleasedIntoNewView(t *testing.T) {
	n, _, sink := newTestNode(t, 1)
	if err := n.Join(tg); err != nil {
		t.Fatal(err)
	}
	waitSink(t, func() bool { return len(sink.views(tg)) == 1 }, "join view")

	n.Block()
	if err := n.Multicast(tg, testPayload{N: 5}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if len(sink.messages(tg)) != 0 {
		t.Fatal("multicast delivered while blocked")
	}
	v2 := membership.NewView(ids.ViewID{Epoch: 7, Coord: 1}, []ids.ProcessID{1})
	n.Install(v2, map[ids.ProcessID][]byte{1: n.Collect()})
	waitSink(t, func() bool { return len(sink.messages(tg)) == 1 }, "released multicast")
}

func TestJoinCaughtInViewChangeSurvivesFlush(t *testing.T) {
	n, _, sink := newTestNode(t, 2)
	// The coordinator (absent process 1) never sequences the join: it is
	// still pending when the view changes.
	puppetView(t, n, 2, 1)
	if err := n.Join(tg); err != nil {
		t.Fatal(err)
	}
	n.Block()
	v2 := membership.NewView(ids.ViewID{Epoch: 6, Coord: 2}, []ids.ProcessID{2})
	n.Install(v2, map[ids.ProcessID][]byte{2: n.Collect()})
	// The flush applies the join; the directory of the new view keeps it.
	if got := n.GroupMembers(tg); !reflect.DeepEqual(got, []ids.ProcessID{2}) {
		t.Fatalf("members after the flush = %v, want [2]: the join was lost", got)
	}
	if err := n.Multicast(tg, testPayload{N: 1}); err != nil {
		t.Fatal(err)
	}
	waitSink(t, func() bool { return len(sink.messages(tg)) == 1 }, "delivery to the joined group")
	vs := sink.views(tg)
	if last := vs[len(vs)-1]; !reflect.DeepEqual(last.View.Members, []ids.ProcessID{2}) || last.View.ID.PV != v2.ID {
		t.Fatalf("last group view = %+v, want [2] in the new view", last.View)
	}
}

func TestFastRejoinerReportedAsJoiner(t *testing.T) {
	n, _, sink := newTestNode(t, 1)
	if err := n.Join(tg); err != nil {
		t.Fatal(err)
	}
	waitSink(t, func() bool { return len(sink.views(tg)) == 1 }, "join view")

	// blob2 is process 2's flush state, always from its own singleton
	// view — first as a genuine joiner, then as a fast-restarted one.
	blob2 := func() []byte {
		b, err := wire.EncodeMessage(flushState{
			VID: ids.ViewID{Epoch: 1, Coord: 2},
			Dir: map[ids.GroupName][]ids.ProcessID{tg: {2}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Process 2 arrives from its own partition: an ordinary joiner.
	v2 := membership.NewView(ids.ViewID{Epoch: 5, Coord: 1}, []ids.ProcessID{1, 2})
	n.Block()
	n.Install(v2, map[ids.ProcessID][]byte{1: n.Collect(), 2: blob2()})
	waitSink(t, func() bool { return len(sink.views(tg)) == 2 }, "merge view")
	if got := sink.views(tg)[1].Joined; !reflect.DeepEqual(got, []ids.ProcessID{2}) {
		t.Fatalf("merge Joined = %v, want [2]", got)
	}

	// Process 2 restarts faster than failure detection: it never leaves
	// the member set, so only its broken view continuity (a flush state
	// from a fresh singleton view) betrays the restart. The new group
	// view must still report it as a joiner — the layers above key their
	// state exchange on that.
	v3 := membership.NewView(ids.ViewID{Epoch: 6, Coord: 1}, []ids.ProcessID{1, 2})
	n.Block()
	n.Install(v3, map[ids.ProcessID][]byte{1: n.Collect(), 2: blob2()})
	waitSink(t, func() bool { return len(sink.views(tg)) == 3 }, "rejoin view")
	ev := sink.views(tg)[2]
	if !reflect.DeepEqual(ev.View.Members, []ids.ProcessID{1, 2}) {
		t.Fatalf("rejoin members = %v, want [1 2]", ev.View.Members)
	}
	if !reflect.DeepEqual(ev.Joined, []ids.ProcessID{2}) {
		t.Fatalf("rejoin Joined = %v, want [2]: a sub-FDTimeout restart must surface as a join", ev.Joined)
	}
	if len(ev.Left) != 0 {
		t.Fatalf("rejoin Left = %v, want empty", ev.Left)
	}
}

func TestFlushDeliversIdenticalSetsToCoMovers(t *testing.T) {
	// Two nodes receive different subsets of the same view's messages;
	// after exchanging Collect blobs, Install delivers the union at both.
	// The phantom coordinator is process 1 — the LEAST member of the
	// forged view — so neither live node runs sequencer-side stability
	// (which would otherwise legitimately prune the retained messages).
	n5, fs5, sink1 := newTestNode(t, 5)
	n6, fs6, sink2 := newTestNode(t, 6)
	for _, n := range []*Node{n5, n6} {
		if err := n.Join(tg); err != nil {
			t.Fatal(err)
		}
	}
	waitSink(t, func() bool { return len(sink1.views(tg)) == 1 && len(sink2.views(tg)) == 1 }, "join views")

	// Put both into the same view coordinated by absent process 1, itself
	// a member of the group (so the others park client copies for it).
	blob1, err := wire.EncodeMessage(flushState{
		VID: ids.ViewID{Epoch: 1, Coord: 1},
		Dir: map[ids.GroupName][]ids.ProcessID{tg: {1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := membership.NewView(ids.ViewID{Epoch: 5, Coord: 1}, []ids.ProcessID{1, 5, 6})
	for _, n := range []*Node{n5, n6} {
		n.Block()
		n.Install(v, map[ids.ProcessID][]byte{n.cfg.Self: n.Collect(), 1: blob1})
	}
	coord := ids.ProcessEndpoint(1)
	mk := func(dseq, seq uint64, nn int) SeqData {
		return SeqData{
			VID: v.ID, Group: tg, Seq: seq, DSeq: dseq,
			ID:      ids.MsgID{Sender: coord, Seq: uint64(nn)},
			From:    coord,
			Payload: testPayload{N: nn},
		}
	}
	// n5 got messages 1 and 2; n6 got only 2 (a dseq gap means n6 buffers
	// it undelivered — still part of its knowledge).
	n5.Handle(coord, mk(1, 1, 1))
	n5.Handle(coord, mk(2, 2, 2))
	n6.Handle(coord, mk(2, 2, 2))
	waitSink(t, func() bool { return len(sink1.messages(tg)) == 2 }, "n5 deliveries")
	// A client's fan-out reached both members but not the coordinator: each
	// parks its copy, nothing is forwarded, nothing is delivered yet.
	client := ids.ClientEndpoint(70)
	cs := ClientSend{Group: tg, ID: ids.MsgID{Sender: client, Seq: 1}, Payload: testPayload{N: 3}}
	n5.Handle(client, cs)
	n6.Handle(client, cs)
	for _, fs := range []*fakeSender{fs5, fs6} {
		if fs.count(isData) != 0 {
			t.Fatal("a member forwarded a copy the coordinator was sent too")
		}
	}

	// Coordinator 1 crashes; survivors exchange states and install. The
	// parked copy travels in both states and is delivered once at each.
	n5.Block()
	n6.Block()
	b5, b6 := n5.Collect(), n6.Collect()
	v2 := membership.NewView(ids.ViewID{Epoch: 6, Coord: 5}, []ids.ProcessID{5, 6})
	states := map[ids.ProcessID][]byte{5: b5, 6: b6}
	n5.Install(v2, states)
	n6.Install(v2, states)

	deadline := time.Now().Add(2 * time.Second * testutil.TimeScale)
	for len(sink1.messages(tg)) != 3 || len(sink2.messages(tg)) != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("union not delivered: sink1=%d sink2=%d msgs2=%+v",
				len(sink1.messages(tg)), len(sink2.messages(tg)), sink2.messages(tg))
		}
		time.Sleep(2 * time.Millisecond)
	}
	m1, m2 := sink1.messages(tg), sink2.messages(tg)
	for i := range m1 {
		if m1[i].Payload.(testPayload).N != m2[i].Payload.(testPayload).N {
			t.Fatalf("co-movers diverge: %v vs %v", m1, m2)
		}
	}
	if last := m1[2]; last.From != client || last.Payload.(testPayload).N != 3 {
		t.Fatalf("flushed client message = %+v", last)
	}
	time.Sleep(30 * time.Millisecond) // past retryTimeout: nothing left to re-deliver
	if len(sink1.messages(tg)) != 3 || len(sink2.messages(tg)) != 3 {
		t.Fatalf("parked copy delivered again after the flush: %d, %d",
			len(sink1.messages(tg)), len(sink2.messages(tg)))
	}
}

// isData matches a forwarded (or originated) Data on the wire.
func isData(e wire.Envelope) bool { _, ok := e.Payload.(Data); return ok }

// --- parked client copies: several nodes wired through an in-memory net ---

// testNet carries messages between the nodes of one test. Sends queue;
// pump hands the queue to the destinations' Handle one message at a time,
// so a test decides when (and whether) a message arrives.
type testNet struct {
	mu    sync.Mutex
	nodes map[ids.ProcessID]*Node
	queue []wire.Envelope
	log   []wire.Envelope
}

type netSender struct {
	net  *testNet
	self ids.ProcessID
}

func (s netSender) Send(to ids.EndpointID, m wire.Message) error {
	env := wire.Envelope{From: ids.ProcessEndpoint(s.self), To: to, Payload: m}
	s.net.mu.Lock()
	defer s.net.mu.Unlock()
	s.net.queue = append(s.net.queue, env)
	s.net.log = append(s.net.log, env)
	return nil
}

func (tn *testNet) pump() {
	for {
		tn.mu.Lock()
		if len(tn.queue) == 0 {
			tn.mu.Unlock()
			return
		}
		env := tn.queue[0]
		tn.queue = tn.queue[1:]
		tn.mu.Unlock()
		if p, ok := env.To.Process(); ok && tn.nodes[p] != nil {
			tn.nodes[p].Handle(env.From, env.Payload)
		}
	}
}

// sent counts the messages of one kind put on the wire so far.
func (tn *testNet) sent(pred func(wire.Envelope) bool) int {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	n := 0
	for _, e := range tn.log {
		if pred(e) {
			n++
		}
	}
	return n
}

// pumpUntil pumps until cond holds.
func (tn *testNet) pumpUntil(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	waitSink(t, func() bool { tn.pump(); return cond() }, msg)
}

// newTestCluster starts the processes of all in one forged view (its least
// member coordinates) with members joined to tg, and returns the net and
// each process's event sink. Each node retries after retry.
func newTestCluster(t *testing.T, retry time.Duration, all, members []ids.ProcessID) (*testNet, map[ids.ProcessID]*eventSink) {
	t.Helper()
	tn := &testNet{nodes: make(map[ids.ProcessID]*Node)}
	sinks := make(map[ids.ProcessID]*eventSink)
	for _, p := range all {
		sink := &eventSink{}
		n := New(Config{
			Self: p, Send: netSender{net: tn, self: p}, OnEvent: sink.on,
			AckInterval: 5 * time.Millisecond,
		})
		n.retryTimeout = retry
		n.Start()
		t.Cleanup(n.Stop)
		tn.nodes[p], sinks[p] = n, sink
	}
	for _, p := range members {
		if err := tn.nodes[p].Join(tg); err != nil {
			t.Fatal(err)
		}
		sink := sinks[p]
		waitSink(t, func() bool { return len(sink.views(tg)) == 1 }, "join view")
	}
	states := make(map[ids.ProcessID][]byte)
	for _, p := range all {
		tn.nodes[p].Block()
		states[p] = tn.nodes[p].Collect()
	}
	v := membership.NewView(ids.ViewID{Epoch: 5, Coord: all[0]}, all)
	for _, p := range all {
		tn.nodes[p].Install(v, states)
	}
	for _, p := range members {
		sink := sinks[p]
		waitSink(t, func() bool {
			vs := sink.views(tg)
			return reflect.DeepEqual(vs[len(vs)-1].View.Members, members)
		}, "merged group view")
	}
	return tn, sinks
}

func isDataAck(e wire.Envelope) bool { _, ok := e.Payload.(DataAck); return ok }

func clientSend(seq uint64, n int) (ids.EndpointID, ClientSend) {
	client := ids.ClientEndpoint(50)
	return client, ClientSend{Group: tg, ID: ids.MsgID{Sender: client, Seq: seq}, Payload: testPayload{N: n}}
}

func TestClientCopyParkedWhenCoordinatorIsMember(t *testing.T) {
	// The member's copy may arrive before or after the coordinator
	// sequenced its own: neither order forwards anything.
	for _, memberFirst := range []bool{true, false} {
		tn, sinks := newTestCluster(t, time.Hour, []ids.ProcessID{1, 2}, []ids.ProcessID{1, 2})
		client, cs := clientSend(1, 7)
		if memberFirst {
			tn.nodes[2].Handle(client, cs)
			tn.nodes[1].Handle(client, cs)
		} else {
			tn.nodes[1].Handle(client, cs)
			tn.pump()
			tn.nodes[2].Handle(client, cs)
		}
		tn.pumpUntil(t, func() bool {
			return len(sinks[1].messages(tg)) == 1 && len(sinks[2].messages(tg)) == 1
		}, "delivered at both members")
		if d, a := tn.sent(isData), tn.sent(isDataAck); d != 0 || a != 0 {
			t.Fatalf("memberFirst=%v: %d Data, %d DataAck sent; want none", memberFirst, d, a)
		}
		n2 := tn.nodes[2]
		n2.mu.Lock()
		left := len(n2.pending)
		n2.mu.Unlock()
		if left != 0 {
			t.Fatalf("memberFirst=%v: %d entries still parked after delivery", memberFirst, left)
		}
		if from := sinks[2].messages(tg)[0].From; from != client {
			t.Fatalf("From = %v, want the client", from)
		}
	}
}

func TestParkedCopyForwardedWhenCoordinatorCopyLost(t *testing.T) {
	tn, sinks := newTestCluster(t, 20*time.Millisecond, []ids.ProcessID{1, 2}, []ids.ProcessID{1, 2})
	client, cs := clientSend(1, 7)
	tn.nodes[2].Handle(client, cs) // the coordinator's copy never arrives
	tn.pump()
	if tn.sent(isData) != 0 {
		t.Fatal("forwarded before retryTimeout")
	}
	tn.pumpUntil(t, func() bool { return tn.sent(isData) == 1 }, "parked copy forwarded after retryTimeout")
	tn.pumpUntil(t, func() bool {
		return len(sinks[1].messages(tg)) == 1 && len(sinks[2].messages(tg)) == 1
	}, "delivered at both members")
	// The late copy to the coordinator changes nothing.
	tn.nodes[1].Handle(client, cs)
	time.Sleep(60 * time.Millisecond)
	tn.pump()
	if a, b := len(sinks[1].messages(tg)), len(sinks[2].messages(tg)); a != 1 || b != 1 {
		t.Fatalf("delivered %d and %d times, want once each", a, b)
	}
}

func TestParkedCopyDoesNotStallLaterMulticast(t *testing.T) {
	tn, sinks := newTestCluster(t, time.Hour, []ids.ProcessID{1, 2}, []ids.ProcessID{1, 2})
	client, cs := clientSend(1, 7)
	tn.nodes[2].Handle(client, cs) // parked for good: retryTimeout is an hour
	if err := tn.nodes[2].Multicast(tg, testPayload{N: 8}); err != nil {
		t.Fatal(err)
	}
	// Had the parked copy taken SendSeq 1, the multicast (SendSeq 2) would
	// wait in the coordinator's reassembly buffer for a Data never sent.
	tn.pumpUntil(t, func() bool {
		return len(sinks[1].messages(tg)) == 1 && len(sinks[2].messages(tg)) == 1
	}, "multicast delivered past the parked copy")
	if got := sinks[1].messages(tg)[0].Payload.(testPayload).N; got != 8 {
		t.Fatalf("delivered payload %d, want the multicast's 8", got)
	}
	n1 := tn.nodes[1]
	n1.mu.Lock()
	fb := n1.coord.fifo[ids.ProcessEndpoint(2)]
	next, buffered := fb.next, len(fb.buf)
	n1.mu.Unlock()
	if next != 2 || buffered != 0 {
		t.Fatalf("coordinator's stream from p2: next=%d buffered=%d, want 2 and 0", next, buffered)
	}
}

func TestNonMemberForwardsClientCopyAtOnce(t *testing.T) {
	tn, sinks := newTestCluster(t, time.Hour, []ids.ProcessID{1, 2, 3}, []ids.ProcessID{1, 2})
	client, cs := clientSend(1, 7)
	tn.nodes[3].Handle(client, cs) // a stale client: p3 is not in the group
	if tn.sent(isData) != 1 {
		t.Fatalf("non-member sent %d Data, want 1 at once", tn.sent(isData))
	}
	tn.pumpUntil(t, func() bool {
		return len(sinks[1].messages(tg)) == 1 && len(sinks[2].messages(tg)) == 1
	}, "delivered at both members")
	if len(sinks[3].messages(tg)) != 0 {
		t.Fatal("delivered at a non-member")
	}
}

func TestOnlyLowestMemberForwardsWhenCoordinatorOutsideGroup(t *testing.T) {
	tn, sinks := newTestCluster(t, time.Hour, []ids.ProcessID{1, 2, 3}, []ids.ProcessID{2, 3})
	client, cs := clientSend(1, 7)
	tn.nodes[3].Handle(client, cs)
	tn.nodes[2].Handle(client, cs)
	tn.pumpUntil(t, func() bool {
		return len(sinks[2].messages(tg)) == 1 && len(sinks[3].messages(tg)) == 1
	}, "delivered at both members")
	tn.pumpUntil(t, func() bool { return tn.sent(isDataAck) == 1 }, "forward acknowledged")
	if d := tn.sent(isData); d != 1 {
		t.Fatalf("%d Data sent, want 1 (from p2 only)", d)
	}
}

func TestPendingRetryResends(t *testing.T) {
	n, fs, _ := newTestNode(t, 2)
	// Put node into a view coordinated by process 1 so Multicast sends
	// Data over the wire and never gets acknowledged.
	puppetView(t, n, 2, 1)
	if err := n.Multicast(tg, testPayload{N: 1}); err != nil {
		t.Fatal(err)
	}
	isData := func(e wire.Envelope) bool {
		_, ok := e.Payload.(Data)
		return ok && e.To == ids.ProcessEndpoint(1)
	}
	waitSink(t, func() bool { return fs.count(isData) >= 2 }, "pending retry resend")
}

func TestDataAckClearsPending(t *testing.T) {
	n, fs, _ := newTestNode(t, 2)
	v := puppetView(t, n, 2, 1)
	if err := n.Multicast(tg, testPayload{N: 1}); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	var id ids.MsgID
	for mid := range n.pending {
		id = mid
	}
	n.mu.Unlock()
	n.Handle(ids.ProcessEndpoint(1), DataAck{VID: v.ID, ID: id})
	before := fs.count(func(e wire.Envelope) bool { _, ok := e.Payload.(Data); return ok })
	time.Sleep(50 * time.Millisecond)
	after := fs.count(func(e wire.Envelope) bool { _, ok := e.Payload.(Data); return ok })
	if after != before {
		t.Fatalf("pending kept retrying after ack: %d -> %d", before, after)
	}
}

func TestNackTriggersRetransmit(t *testing.T) {
	// Coordinator-side: a member NACKs a dseq; the coordinator resends
	// from history. The singleton node is its own coordinator; forge a
	// two-member view where self coordinates.
	n, fs, sink := newTestNode(t, 1)
	if err := n.Join(tg); err != nil {
		t.Fatal(err)
	}
	waitSink(t, func() bool { return len(sink.views(tg)) == 1 }, "join")
	// Bring process 2 into the view AND into the group via a forged join.
	v := membership.NewView(ids.ViewID{Epoch: 5, Coord: 1}, []ids.ProcessID{1, 2})
	n.Block()
	n.Install(v, map[ids.ProcessID][]byte{1: n.Collect()})
	n.Handle(ids.ProcessEndpoint(2), Data{
		VID: v.ID, SendSeq: 1,
		ID:      ids.MsgID{Sender: ids.ProcessEndpoint(2), Seq: 1},
		Group:   DirGroup,
		From:    ids.ProcessEndpoint(2),
		Payload: JoinGroup{Group: tg, P: 2},
	})
	// Now multicast: the coordinator sends SeqData to member 2.
	if err := n.Multicast(tg, testPayload{N: 1}); err != nil {
		t.Fatal(err)
	}
	isSD := func(e wire.Envelope) bool {
		_, ok := e.Payload.(SeqData)
		return ok && e.To == ids.ProcessEndpoint(2)
	}
	waitSink(t, func() bool { return fs.count(isSD) >= 1 }, "seqdata to member")
	before := fs.count(isSD)
	n.Handle(ids.ProcessEndpoint(2), Nack{VID: v.ID, DSeqs: []uint64{1}})
	if fs.count(isSD) <= before {
		t.Fatal("NACK did not trigger retransmission")
	}

	// Member 2's stream holds its join at dseq 1 and the multicast at 2;
	// four more multicasts take dseqs 3 to 6. An Ack through dseq 3 prunes
	// 1 to 3 from its history: a NACK for 3 then resends nothing, and one
	// for 4 resends exactly that entry.
	for i := 2; i <= 5; i++ {
		if err := n.Multicast(tg, testPayload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	n.Handle(ids.ProcessEndpoint(2), Ack{VID: v.ID, DSeqUpTo: 3})
	resent := func(dseqs ...uint64) []SeqData {
		fs.mu.Lock()
		from := len(fs.sent)
		fs.mu.Unlock()
		n.Handle(ids.ProcessEndpoint(2), Nack{VID: v.ID, DSeqs: dseqs})
		fs.mu.Lock()
		defer fs.mu.Unlock()
		var out []SeqData
		for _, e := range fs.sent[from:] {
			if isSD(e) {
				out = append(out, e.Payload.(SeqData))
			}
		}
		return out
	}
	if got := resent(3); len(got) != 0 {
		t.Errorf("NACK of pruned dseq 3 resent %+v", got)
	}
	if got := resent(4); len(got) != 1 || got[0].DSeq != 4 || got[0].Payload != (testPayload{N: 3}) {
		t.Errorf("NACK of dseq 4 resent %+v, want its one entry carrying N=3", got)
	}

	// A member that never acknowledges again leaves the coordinator
	// holding its newest historyLimit entries, no more.
	const sends = historyLimit + 100
	for i := 0; i < sends; i++ {
		if err := n.Multicast(tg, testPayload{N: 100 + i}); err != nil {
			t.Fatal(err)
		}
	}
	n.mu.Lock()
	h := n.coord.history[2]
	held, oldest := h.q.Len(), h.min
	n.mu.Unlock()
	if last := uint64(6 + sends); held != historyLimit || oldest != last-historyLimit+1 {
		t.Errorf("history holds %d entries from dseq %d, want %d from %d", held, oldest, historyLimit, last-historyLimit+1)
	}

	// Stability drops a delivered message from retained and from
	// deliveredIDs together. Member 2 never acknowledged any of the group,
	// so only this Stable can make them stable.
	n.mu.Lock()
	rec := n.grp[tg]
	kept, keptIDs, upTo := rec.retained.Len(), len(rec.deliveredIDs), rec.upTo
	n.mu.Unlock()
	if kept != int(upTo) || keptIDs != kept {
		t.Fatalf("before Stable: %d retained, %d delivered IDs, want %d of each", kept, keptIDs, upTo)
	}
	n.Handle(ids.ProcessEndpoint(1), Stable{VID: v.ID, StableTo: map[ids.GroupName]uint64{tg: upTo - 10}})
	n.mu.Lock()
	kept, keptIDs = rec.retained.Len(), len(rec.deliveredIDs)
	first := rec.retained.At(0).Seq
	n.mu.Unlock()
	if kept != 10 || keptIDs != 10 || first != upTo-9 {
		t.Errorf("after Stable to %d: %d retained from seq %d, %d delivered IDs; want 10 from %d, 10", upTo-10, kept, first, keptIDs, upTo-9)
	}
}

func TestEventQueueOrderAndClose(t *testing.T) {
	q := newEventQueue()
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	go func() {
		q.dispatch(func(e Event) {
			mu.Lock()
			got = append(got, e.(MessageEvent).Payload.(testPayload).N)
			mu.Unlock()
		})
		close(done)
	}()
	for i := 0; i < 100; i++ {
		q.push(MessageEvent{Payload: testPayload{N: i}})
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue drain timeout")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d: %d", i, v)
		}
	}
	mu.Unlock()
	q.close()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("dispatch did not exit on close")
	}
	q.push(MessageEvent{}) // push after close must not panic
}

func TestGroupsWithPrefix(t *testing.T) {
	n, _, sink := newTestNode(t, 1)
	for _, g := range []ids.GroupName{"content/a", "content/b", "session/x"} {
		if err := n.Join(g); err != nil {
			t.Fatal(err)
		}
	}
	waitSink(t, func() bool { return len(sink.views("session/x")) == 1 }, "joins done")
	got := n.GroupsWithPrefix("content/")
	want := []ids.GroupName{"content/a", "content/b"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GroupsWithPrefix = %v, want %v", got, want)
	}
	if n.GroupsWithPrefix("nope/") != nil {
		t.Fatal("unexpected prefix matches")
	}
}
