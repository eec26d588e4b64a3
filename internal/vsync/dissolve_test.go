package vsync

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"hafw/internal/ids"
	"hafw/internal/membership"
	"hafw/internal/wire"
)

// groupCensus counts the per-group records of every member and of the
// coordinator.
type groupCensus struct {
	dir, groupViewN, grp, lastGV    map[ids.ProcessID]int
	seqDir, nextSeq, acks, unstable int
}

func takeCensus(tn *testNet, members []ids.ProcessID) groupCensus {
	c := groupCensus{
		dir: map[ids.ProcessID]int{}, groupViewN: map[ids.ProcessID]int{},
		grp: map[ids.ProcessID]int{}, lastGV: map[ids.ProcessID]int{},
	}
	for _, p := range members {
		n := tn.nodes[p]
		n.mu.Lock()
		c.dir[p], c.groupViewN[p] = len(n.dir), len(n.groupViewN)
		c.grp[p], c.lastGV[p] = len(n.grp), len(n.lastGV)
		if n.coord != nil {
			c.seqDir, c.nextSeq, c.unstable = len(n.coord.seqDir), len(n.coord.nextSeq), len(n.coord.unstable)
			for _, m := range n.coord.acks {
				c.acks += len(m)
			}
		}
		n.mu.Unlock()
	}
	return c
}

// settle pumps until every message sent is delivered and stable
// everywhere and every member's delivery point has reached the
// coordinator.
func settle(t *testing.T, tn *testNet, members []ids.ProcessID) {
	t.Helper()
	tn.pumpUntil(t, func() bool {
		for _, p := range members {
			n := tn.nodes[p]
			n.mu.Lock()
			quiet := len(n.pending) == 0 && len(n.dseqBuf) == 0
			for _, rec := range n.grp {
				quiet = quiet && rec.retained.Len() == 0
			}
			if c := n.coord; c != nil {
				quiet = quiet && len(c.unstable) == 0
				if next, ok := c.nextSeq[DirGroup]; ok {
					for _, q := range members {
						quiet = quiet && c.acks[q][DirGroup] == next-1
					}
				}
			}
			n.mu.Unlock()
			if !quiet {
				return false
			}
		}
		tn.mu.Lock()
		tn.log = nil
		tn.mu.Unlock()
		return true
	}, "every message delivered and stable")
}

// pumpDropping is pump with the messages that drop matches lost.
func (tn *testNet) pumpDropping(drop func(wire.Envelope) bool) {
	for {
		tn.mu.Lock()
		if len(tn.queue) == 0 {
			tn.mu.Unlock()
			return
		}
		e := tn.queue[0]
		tn.queue = tn.queue[1:]
		tn.mu.Unlock()
		if drop(e) {
			continue
		}
		if p, ok := e.To.Process(); ok && tn.nodes[p] != nil {
			tn.nodes[p].Handle(e.From, e.Payload)
		}
	}
}

// TestDissolvedGroupsLeaveNoState runs 50 000 join/leave cycles of fresh
// groups across three members, with a view change halfway. Each group
// dissolves at its last leave, so afterwards every member and the
// coordinator hold as many per-group records as before the first cycle,
// and the flush state is no larger after 50 000 cycles than after 10 000.
func TestDissolvedGroupsLeaveNoState(t *testing.T) {
	members := []ids.ProcessID{1, 2, 3}
	tn, sinks := newTestCluster(t, time.Hour, members, members)
	for _, p := range members {
		sinks[p].countOnly()
		// Message IDs start at 2^21, so every ID the flush state lists
		// has the same varint width for the whole run and blob sizes
		// compare exactly.
		n := tn.nodes[p]
		n.mu.Lock()
		n.nextMsgSeq = 1 << 21
		n.mu.Unlock()
	}
	const batch = 100
	cycles := func(from, to int) {
		for i := from; i < to; i += batch {
			for _, op := range []func(*Node, ids.GroupName) error{(*Node).Join, (*Node).Leave} {
				for j := i; j < i+batch && j < to; j++ {
					g := ids.GroupName(fmt.Sprintf("s%d", j))
					for _, p := range members {
						if err := op(tn.nodes[p], g); err != nil {
							t.Fatal(err)
						}
					}
				}
				tn.pump()
			}
			tn.mu.Lock()
			tn.log = nil
			tn.mu.Unlock()
		}
	}
	collectSize := func() []int {
		var out []int
		for _, p := range members {
			out = append(out, len(tn.nodes[p].Collect()))
		}
		return out
	}

	// One warm-up cycle gives DirGroup its sequencer and ack entries.
	cycles(0, 1)
	settle(t, tn, members)
	before := takeCensus(tn, members)

	cycles(1, 10000)
	settle(t, tn, members)
	at10k := collectSize()

	cycles(10000, 25000)
	settle(t, tn, members)
	states := make(map[ids.ProcessID][]byte)
	for _, p := range members {
		tn.nodes[p].Block()
		states[p] = tn.nodes[p].Collect()
	}
	v := membership.NewView(ids.ViewID{Epoch: 6, Coord: 1}, members)
	for _, p := range members {
		tn.nodes[p].Install(v, states)
	}

	cycles(25000, 50000)
	settle(t, tn, members)
	if after := takeCensus(tn, members); !reflect.DeepEqual(after, before) {
		t.Errorf("per-group records after 50 000 cycles = %+v, want %+v as before them", after, before)
	}
	if at50k := collectSize(); !reflect.DeepEqual(at50k, at10k) {
		t.Errorf("flush state sizes after 50 000 cycles = %v B, want %v B as after 10 000", at50k, at10k)
	}
	for _, p := range members {
		if got := tn.nodes[p].GroupsWithPrefix("s"); len(got) != 0 {
			t.Errorf("p%d still lists %d dissolved groups", p, len(got))
		}
	}
}

// TestFlushFromEarlierBuildRevivesNoGroup installs a view whose flush
// states include one shaped like an earlier build's, which lists every
// group it ever saw dissolve with an empty member list. No dissolved group
// comes back, and the live group and its GroupViewID are what they would
// be without the stale entries.
func TestFlushFromEarlierBuildRevivesNoGroup(t *testing.T) {
	members := []ids.ProcessID{1, 2}
	tn, sinks := newTestCluster(t, time.Hour, members, members)
	for _, p := range members {
		tn.nodes[p].Block()
	}
	fresh := map[ids.ProcessID][]byte{1: tn.nodes[1].Collect(), 2: tn.nodes[2].Collect()}
	m, err := wire.DecodeMessage(fresh[2])
	if err != nil {
		t.Fatal(err)
	}
	old := m.(flushState)
	for i := 0; i < 10; i++ {
		old.Dir[ids.GroupName(fmt.Sprintf("s%d", i))] = []ids.ProcessID{}
	}
	oldBlob, err := wire.EncodeMessage(old)
	if err != nil {
		t.Fatal(err)
	}
	states := map[ids.ProcessID][]byte{1: fresh[1], 2: oldBlob}
	v := membership.NewView(ids.ViewID{Epoch: 6, Coord: 1}, members)
	for _, p := range members {
		tn.nodes[p].Install(v, states)
	}

	for _, p := range members {
		n := tn.nodes[p]
		n.mu.Lock()
		dir, gvn := len(n.dir), len(n.groupViewN)
		seqDir := -1
		if n.coord != nil {
			seqDir = len(n.coord.seqDir)
		}
		n.mu.Unlock()
		if dir != 1 || gvn != 1 {
			t.Errorf("p%d adopted dissolved groups: %d directory entries, %d view counters, want 1 each", p, dir, gvn)
		}
		if p == 1 && seqDir != 1 {
			t.Errorf("coordinator's sequencer directory has %d groups, want 1", seqDir)
		}
		want := GroupViewID{PV: v.ID, N: 1}
		waitSink(t, func() bool {
			vs := sinks[p].views(tg)
			return vs[len(vs)-1].View.ID == want
		}, "the live group's view in the new process view")
		vs := sinks[p].views(tg)
		if got := vs[len(vs)-1].View.Members; !reflect.DeepEqual(got, members) {
			t.Errorf("p%d: live group members = %v, want %v", p, got, members)
		}
	}
}

// TestLeaveDeliveredByOneCoMoverDissolvesEverywhere loses the group's last
// leave on its way to one member, then changes the view. The member that
// delivered the leave had forgotten the group; the flush's directory union
// brings the laggard's stale entry back, and re-applying the flushed leave
// must drop it again there too, so both members end with no record of it.
func TestLeaveDeliveredByOneCoMoverDissolvesEverywhere(t *testing.T) {
	members := []ids.ProcessID{1, 2}
	tn, _ := newTestCluster(t, time.Hour, members, members)
	if err := tn.nodes[1].Leave(tg); err != nil {
		t.Fatal(err)
	}
	settle(t, tn, members)

	// p2's leave is sequenced and delivered at the coordinator; the copy
	// for p2 itself is lost.
	if err := tn.nodes[2].Leave(tg); err != nil {
		t.Fatal(err)
	}
	waitSink(t, func() bool {
		tn.pumpDropping(func(e wire.Envelope) bool {
			_, sd := e.Payload.(SeqData)
			return sd && e.To == ids.ProcessEndpoint(2)
		})
		return tn.nodes[1].DirGroups() == 0
	}, "the leave delivered at the coordinator")
	if tn.nodes[2].DirGroups() != 1 {
		t.Fatal("the leave reached p2")
	}

	states := make(map[ids.ProcessID][]byte)
	for _, p := range members {
		tn.nodes[p].Block()
		states[p] = tn.nodes[p].Collect()
	}
	v := membership.NewView(ids.ViewID{Epoch: 6, Coord: 1}, members)
	for _, p := range members {
		tn.nodes[p].Install(v, states)
	}
	for _, p := range members {
		if got := tn.nodes[p].DirGroups(); got != 0 {
			t.Errorf("p%d keeps %d groups after the flush, want 0: members %v", p, got, tn.nodes[p].GroupMembers(tg))
		}
	}
}

// TestLateClientCopyForDissolvedGroup sequences a client's copy for a
// group that has dissolved. Nobody delivers it, the sender is
// acknowledged, and the coordinator keeps no sequence counter for the
// group.
func TestLateClientCopyForDissolvedGroup(t *testing.T) {
	members := []ids.ProcessID{1, 2}
	tn, sinks := newTestCluster(t, time.Hour, members, members)
	for _, p := range members {
		if err := tn.nodes[p].Leave(tg); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, tn, members)

	client, cs := clientSend(1, 7)
	tn.nodes[2].Handle(client, cs)
	settle(t, tn, members)
	n1 := tn.nodes[1]
	n1.mu.Lock()
	_, counted := n1.coord.nextSeq[tg]
	n1.mu.Unlock()
	if counted {
		t.Error("the late copy re-created the dissolved group's sequence counter")
	}
	for _, p := range members {
		if got := len(sinks[p].messages(tg)); got != 0 {
			t.Errorf("p%d delivered %d messages for the dissolved group", p, got)
		}
	}
}

// TestStaleAckAfterRejoinMarksNothingStable has p2, the only member of tg
// and not the coordinator, leave and rejoin; an Ack it built before it
// delivered its leave then reaches the coordinator. The re-created group
// numbers above everything the dissolved one had, so the Ack says nothing
// about it: p2's delivery point stays at the join's base, and a message
// p2 has not delivered does not become stable.
func TestStaleAckAfterRejoinMarksNothingStable(t *testing.T) {
	all := []ids.ProcessID{1, 2}
	tn, _ := newTestCluster(t, time.Hour, all, []ids.ProcessID{2})
	n1, n2 := tn.nodes[1], tn.nodes[2]
	for i := 0; i < 5; i++ {
		if err := n2.Multicast(tg, testPayload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, tn, all)
	n2.mu.Lock()
	stale := Ack{VID: n2.view.ID, Delivered: map[ids.GroupName]uint64{tg: n2.grp[tg].upTo}}
	n2.mu.Unlock()
	if stale.Delivered[tg] == 0 {
		t.Fatal("p2 delivered nothing in tg")
	}

	if err := n2.Leave(tg); err != nil {
		t.Fatal(err)
	}
	if err := n2.Join(tg); err != nil {
		t.Fatal(err)
	}
	settle(t, tn, all)
	n2.mu.Lock()
	base := n2.grp[tg].upTo // the rejoin's base sequence number, less one
	n2.mu.Unlock()
	if base <= stale.Delivered[tg] {
		t.Errorf("the re-created group starts at %d, want above the dissolved one's %d", base+1, stale.Delivered[tg])
	}

	// A message for the new incarnation is sequenced; its copy for p2 is
	// held back, then the stale Ack arrives and a stability round runs.
	if err := n2.Multicast(tg, testPayload{N: 99}); err != nil {
		t.Fatal(err)
	}
	toP2 := func(e wire.Envelope) bool { return e.To == ids.ProcessEndpoint(2) }
	tn.pumpUntil(t, func() bool {
		tn.pumpDropping(toP2)
		n1.mu.Lock()
		defer n1.mu.Unlock()
		return len(n1.coord.unstable[tg]) == 1
	}, "the message sequenced")
	n1.Handle(ids.ProcessEndpoint(2), stale)
	n1.tick()

	n1.mu.Lock()
	defer n1.mu.Unlock()
	if got := n1.coord.acks[2][tg]; got != base {
		t.Errorf("p2's delivery point at the coordinator = %d after the stale Ack, want the join's base %d", got, base)
	}
	if got := len(n1.coord.unstable[tg]); got != 1 {
		t.Errorf("%d unstable messages in tg, want 1: p2 has not delivered it", got)
	}
}

// TestFlushKeepsIncarnationsApart dissolves tg while its last member, p2,
// has not delivered the leave and still retains the group's messages; p3
// and p4 then re-create it, and p4 delivers messages of the new
// incarnation that p3 misses. The flush carries both incarnations'
// messages, and each member delivers its own incarnation's only.
func TestFlushKeepsIncarnationsApart(t *testing.T) {
	all := []ids.ProcessID{1, 2, 3, 4}
	tn, sinks := newTestCluster(t, time.Hour, all, []ids.ProcessID{2})
	n2 := tn.nodes[2]
	// p2 never learns that anything is stable, nor, from here on, what
	// happens to tg.
	stableToP2 := func(e wire.Envelope) bool {
		_, st := e.Payload.(Stable)
		return st && e.To == ids.ProcessEndpoint(2)
	}
	for i := 0; i < 3; i++ {
		if err := n2.Multicast(tg, testPayload{N: 100 + i}); err != nil {
			t.Fatal(err)
		}
	}
	waitSink(t, func() bool { tn.pumpDropping(stableToP2); return len(sinks[2].messages(tg)) == 3 }, "old incarnation delivered")

	lost := func(e wire.Envelope) bool {
		if stableToP2(e) {
			return true
		}
		sd, ok := e.Payload.(SeqData)
		return ok && (e.To == ids.ProcessEndpoint(2) || sd.Group == tg && e.To == ids.ProcessEndpoint(3))
	}
	if err := n2.Leave(tg); err != nil {
		t.Fatal(err)
	}
	waitSink(t, func() bool { tn.pumpDropping(lost); return tn.nodes[3].DirGroups() == 0 }, "the leave delivered at p3")
	for _, p := range []ids.ProcessID{3, 4} {
		if err := tn.nodes[p].Join(tg); err != nil {
			t.Fatal(err)
		}
	}
	waitSink(t, func() bool { tn.pumpDropping(lost); return len(tn.nodes[4].GroupMembers(tg)) == 2 }, "the joins delivered")
	for i := 0; i < 3; i++ {
		if err := tn.nodes[4].Multicast(tg, testPayload{N: 200 + i}); err != nil {
			t.Fatal(err)
		}
	}
	waitSink(t, func() bool { tn.pumpDropping(lost); return len(sinks[4].messages(tg)) == 3 }, "new incarnation delivered at p4")

	states := make(map[ids.ProcessID][]byte)
	for _, p := range all {
		tn.nodes[p].Block()
		states[p] = tn.nodes[p].Collect()
	}
	v := membership.NewView(ids.ViewID{Epoch: 6, Coord: 1}, all)
	for _, p := range all {
		tn.nodes[p].Install(v, states)
	}
	want := map[ids.ProcessID][]int{2: {100, 101, 102}, 3: {200, 201, 202}, 4: {200, 201, 202}}
	for p, w := range want {
		waitSink(t, func() bool { return len(sinks[p].messages(tg)) >= len(w) }, "flush delivered")
		var got []int
		for _, m := range sinks[p].messages(tg) {
			got = append(got, m.Payload.(testPayload).N)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("p%d delivered %v in tg, want %v", p, got, w)
		}
	}
}
