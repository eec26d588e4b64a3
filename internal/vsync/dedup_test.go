package vsync

import (
	"fmt"
	"testing"
	"time"

	"hafw/internal/ids"
	"hafw/internal/membership"
	"hafw/internal/wire"
)

// TestDedupStateBoundedByStability runs 100 000 client messages, fanned
// out to every member as a client does, through one 3-member view. The
// coordinator's sequencing dedup and every member's record of stable
// messages stay a range or two per sender, and no member's delivery dedup
// outgrows the unstable messages it retains.
func TestDedupStateBoundedByStability(t *testing.T) {
	members := []ids.ProcessID{1, 2, 3}
	tn, sinks := newTestCluster(t, time.Hour, members, members)
	for _, s := range sinks {
		s.countOnly()
	}
	clients := []ids.EndpointID{ids.ClientEndpoint(50), ids.ClientEndpoint(51)}
	const total = 100000
	checkBounded := func() {
		t.Helper()
		for _, p := range members {
			n := tn.nodes[p]
			n.mu.Lock()
			for g, rec := range n.grp {
				if len(rec.deliveredIDs) > rec.retained.Len() {
					t.Errorf("p%d group %q: %d delivered IDs for %d retained messages", p, g, len(rec.deliveredIDs), rec.retained.Len())
				}
			}
			n.mu.Unlock()
		}
	}
	for i := 0; i < total; i++ {
		client := clients[i%len(clients)]
		cs := ClientSend{Group: tg, ID: ids.MsgID{Sender: client, Seq: uint64(i/len(clients) + 1)}, Payload: testPayload{N: i}}
		for _, p := range members {
			tn.nodes[p].Handle(client, cs)
		}
		if i%100 == 99 {
			tn.pump()
			tn.mu.Lock()
			tn.log = nil
			tn.mu.Unlock()
		}
		if i%10000 == 9999 {
			checkBounded()
		}
	}
	tn.pumpUntil(t, func() bool {
		for _, s := range sinks {
			if s.delivered(tg) != total {
				return false
			}
		}
		return true
	}, "every message delivered at every member")
	tn.pumpUntil(t, func() bool {
		n := tn.nodes[2]
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.grp[tg].retained.Len() == 0
	}, "stability reached the last message")
	checkBounded()

	for _, p := range members {
		n := tn.nodes[p]
		n.mu.Lock()
		for _, c := range clients {
			if r := n.stableIDs[c]; r == nil || len(*r) > 2 {
				t.Errorf("p%d's stable IDs for %v = %v, want at most 2 ranges", p, c, r)
			}
		}
		n.mu.Unlock()
	}
	n1 := tn.nodes[1]
	n1.mu.Lock()
	defer n1.mu.Unlock()
	for _, c := range clients {
		if r := n1.coord.seqd[c]; r == nil || len(*r) > 2 {
			t.Errorf("coordinator's seqd for %v = %v, want at most 2 ranges", c, r)
		}
	}
}

// TestLateCopyOfStableMessageAckedNotRedelivered delays one member's
// fan-out copy until after the message is stable, so the member no longer
// remembers delivering it. The member forwards the copy; the coordinator
// recognizes it as sequenced and acknowledges it instead of delivering it
// a second time.
func TestLateCopyOfStableMessageAckedNotRedelivered(t *testing.T) {
	members := []ids.ProcessID{1, 2, 3}
	tn, sinks := newTestCluster(t, 20*time.Millisecond, members, members)
	client, cs := clientSend(1, 7)
	tn.nodes[1].Handle(client, cs)
	tn.nodes[3].Handle(client, cs) // p2's copy is late
	n2 := tn.nodes[2]
	tn.pumpUntil(t, func() bool {
		n2.mu.Lock()
		defer n2.mu.Unlock()
		return n2.grp[tg].upTo == 1 && n2.grp[tg].retained.Len() == 0 && len(n2.grp[tg].deliveredIDs) == 0
	}, "message delivered at p2 and stable")

	tn.nodes[2].Handle(client, cs)
	isAckToP2 := func(e wire.Envelope) bool {
		a, ok := e.Payload.(DataAck)
		return ok && e.To == ids.ProcessEndpoint(2) && a.ID == cs.ID
	}
	tn.pumpUntil(t, func() bool {
		n2.mu.Lock()
		defer n2.mu.Unlock()
		return tn.sent(isAckToP2) == 1 && len(n2.pending) == 0
	}, "late copy forwarded and acknowledged")
	time.Sleep(50 * time.Millisecond)
	tn.pump()
	for _, p := range members {
		if got := len(sinks[p].messages(tg)); got != 1 {
			t.Errorf("p%d delivered the message %d times, want once", p, got)
		}
	}
}

// TestLateCopyCaughtByViewChangeNotRedelivered parks a late fan-out copy
// of a stable message at a member, as in the test above, and changes the
// view before the copy is forwarded, so the copy travels in the flush. No
// member remembers delivering the message by its ID any more; the stable
// IDs every member kept keep the flush from delivering it again, whether
// the old coordinator takes part in the flush or crashed, and keep a copy
// that arrives during the freeze from being sent into the new view.
func TestLateCopyCaughtByViewChangeNotRedelivered(t *testing.T) {
	for _, tc := range []struct {
		name         string
		survivors    []ids.ProcessID
		duringFreeze bool
	}{
		{"coordinator stays", []ids.ProcessID{1, 2, 3}, false},
		{"coordinator crashed", []ids.ProcessID{2, 3}, false},
		{"copy arrives during the freeze", []ids.ProcessID{1, 2, 3}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			members := []ids.ProcessID{1, 2, 3}
			tn, sinks := newTestCluster(t, time.Hour, members, members)
			client, cs := clientSend(1, 7)
			tn.nodes[1].Handle(client, cs)
			tn.nodes[3].Handle(client, cs) // p2's copy is late
			tn.pumpUntil(t, func() bool {
				for _, p := range members {
					n := tn.nodes[p]
					n.mu.Lock()
					pruned := n.grp[tg].upTo == 1 && len(n.grp[tg].deliveredIDs) == 0
					n.mu.Unlock()
					if !pruned {
						return false
					}
				}
				return true
			}, "message delivered and stable everywhere")

			n2 := tn.nodes[2]
			if !tc.duringFreeze {
				n2.Handle(client, cs)
				n2.mu.Lock()
				_, parked := n2.pending[cs.ID]
				n2.mu.Unlock()
				if !parked {
					t.Fatal("p2 did not keep its late copy")
				}
			}

			states := make(map[ids.ProcessID][]byte)
			for _, p := range tc.survivors {
				tn.nodes[p].Block()
			}
			if tc.duringFreeze {
				n2.Handle(client, cs)
			}
			for _, p := range tc.survivors {
				states[p] = tn.nodes[p].Collect()
			}
			v := membership.NewView(ids.ViewID{Epoch: 6, Coord: tc.survivors[0]}, tc.survivors)
			for _, p := range tc.survivors {
				tn.nodes[p].Install(v, states)
			}
			tn.pump() // a copy sent into the new view is sequenced here
			time.Sleep(50 * time.Millisecond)
			for _, p := range tc.survivors {
				if got := len(sinks[p].messages(tg)); got != 1 {
					t.Errorf("p%d delivered the message %d times, want once", p, got)
				}
			}
		})
	}
}

// TestStabilityCoversLiveGroupsOnly opens and closes 500 groups in one
// view. The coordinator forgets each group at its last leave, so the
// stability it broadcasts lists the groups still alive, not every group
// the view has seen.
func TestStabilityCoversLiveGroupsOnly(t *testing.T) {
	members := []ids.ProcessID{1, 2}
	tn, _ := newTestCluster(t, time.Hour, members, members)
	for i := 0; i < 500; i++ {
		g := ids.GroupName(fmt.Sprintf("s%d", i))
		for _, p := range members {
			if err := tn.nodes[p].Join(g); err != nil {
				t.Fatal(err)
			}
		}
		tn.pump()
		for _, p := range members {
			if err := tn.nodes[p].Leave(g); err != nil {
				t.Fatal(err)
			}
		}
		tn.pump()
	}
	n1 := tn.nodes[1]
	tn.pumpUntil(t, func() bool {
		n1.mu.Lock()
		defer n1.mu.Unlock()
		return len(n1.grp) == 2 // DirGroup and tg: every leave delivered
	}, "leaves delivered")
	n1.mu.Lock()
	live := len(n1.coord.seqDir)
	n1.mu.Unlock()
	if live != 1 {
		t.Fatalf("coordinator tracks %d groups, want only tg", live)
	}
	tn.mu.Lock()
	tn.log = nil
	tn.mu.Unlock()
	tn.pumpUntil(t, func() bool {
		return tn.sent(func(e wire.Envelope) bool { _, ok := e.Payload.(Stable); return ok }) > 0
	}, "a stability round")
	tn.mu.Lock()
	defer tn.mu.Unlock()
	for _, e := range tn.log {
		if st, ok := e.Payload.(Stable); ok && len(st.StableTo) > 2 {
			t.Fatalf("Stable lists %d groups, want DirGroup and tg", len(st.StableTo))
		}
	}
}
