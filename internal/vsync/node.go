package vsync

import (
	"sort"
	"sync"
	"time"

	"hafw/internal/clock"
	"hafw/internal/ids"
	"hafw/internal/membership"
	"hafw/internal/metrics"
	"hafw/internal/ring"
	"hafw/internal/wire"
)

// Sender is the outbound transport dependency.
type Sender interface {
	Send(to ids.EndpointID, m wire.Message) error
}

// Config parameterizes a Node.
type Config struct {
	// Self is the local process.
	Self ids.ProcessID
	// Send transmits protocol messages.
	Send Sender
	// OnEvent receives application deliveries, invoked sequentially from a
	// single dispatch goroutine in delivery order.
	OnEvent func(Event)
	// AckInterval is the period of the housekeeping tick (delivery acks,
	// stability broadcast, pending retry, gap detection). Zero means 25ms.
	// An unacknowledged send or an undelivered stream gap is retried after
	// four ticks.
	AckInterval time.Duration
	// Metrics receives vsync telemetry (view-change membership-phase
	// latency, flush sizes). Nil selects a private registry, so
	// instrumentation never needs guarding.
	Metrics *metrics.Registry
	// Clock is the time source for retries, NACK pacing, and telemetry.
	// Nil means the wall clock.
	Clock clock.Clock
}

// pendingData tracks one unsequenced message for retry and flush: either
// sent toward the coordinator, or parked (see handleClientSendLocked).
type pendingData struct {
	d        Data
	lastSent time.Time
	// parked marks a client fan-out copy held back because another copy is
	// expected to reach the sequencer without this process's help. It has
	// no SendSeq yet — stamping one would open a gap in this process's FIFO
	// stream that stalls its later sends at the coordinator. The entry is
	// dropped when the message is delivered here, forwarded if retryTimeout
	// passes first, and flushed like any other pending send.
	parked bool
}

// groupRecv is the per-group delivery record at a member.
type groupRecv struct {
	// upTo is the highest group sequence number delivered (or skipped as
	// pre-join) here, within the current view.
	upTo uint64
	// retained holds the delivered-but-unstable sequenced messages for the
	// view-change flush, as the flush carries them, in Seq order: a group's
	// messages reach a member in the order they were sequenced, so
	// stability pops them from the front.
	retained ring.Ring[flushMsg]
	// deliveredIDs dedups flush deliveries against sequenced ones within
	// the view. It holds the IDs of retained messages only: stability
	// drops an ID together with its message, and the node's stableIDs
	// takes over. A late fan-out copy of a stable message is forwarded and
	// acknowledged by the coordinator's seqd; a flush that catches it
	// before the ack drops it by stableIDs.
	deliveredIDs map[ids.MsgID]bool
}

func newGroupRecv(upTo uint64) *groupRecv {
	return &groupRecv{
		upTo:         upTo,
		deliveredIDs: make(map[ids.MsgID]bool),
	}
}

// fifoBuf reassembles one sender's Data stream in SendSeq order.
type fifoBuf struct {
	next uint64
	buf  map[uint64]Data
}

// coordState is the sequencing state, live only at the view coordinator.
type coordState struct {
	// seqDir is the sequencer-side directory: group membership as of the
	// sequencing point (may run ahead of the delivery-side directory). It
	// holds non-empty groups only: a group's last leave deletes its entry.
	seqDir map[ids.GroupName]map[ids.ProcessID]bool
	// seqd dedups sequencing by message ID within the view. All of a
	// sender's messages pass through this coordinator, so its set stays a
	// range or two however many messages the view carries.
	seqd idSet
	// unstable lists, per group in sequence order, the messages sequenced
	// to it that stability has not yet covered.
	unstable map[ids.GroupName][]unstableMsg
	// nextSeq is the next per-group sequence number to assign. A group's
	// last leave deletes its entry, and a message for a group with no
	// destination takes no number, so it holds live groups only.
	nextSeq map[ids.GroupName]uint64
	// freshSeq is where a group without a nextSeq entry starts numbering:
	// one above the count of numbers the view has assigned, so at or above
	// every nextSeq. A name re-created after its last leave thus numbers
	// above everything its dissolved incarnation had, and an Ack or a
	// flushed message of the old incarnation cannot pass for one of the
	// new, with no record of the old kept.
	freshSeq uint64
	// nextDSeqOut is the next per-destination stream number to assign.
	nextDSeqOut map[ids.ProcessID]uint64
	// history retains the SeqData sent to each other destination for NACK
	// retransmission, until the destination acknowledges it or
	// historyLimit newer entries push it out.
	history map[ids.ProcessID]*sentStream
	// acks is the latest per-member delivery report, for the groups the
	// member is in at the sequencing point: a member's leave deletes its
	// entry for the group, and an Ack's report for a group the sender is
	// not in is ignored.
	acks map[ids.ProcessID]map[ids.GroupName]uint64
	// fifo reassembles each sender's Data stream.
	fifo map[ids.EndpointID]*fifoBuf
}

func newCoordState() *coordState {
	return &coordState{
		seqDir:      make(map[ids.GroupName]map[ids.ProcessID]bool),
		seqd:        make(idSet),
		unstable:    make(map[ids.GroupName][]unstableMsg),
		nextSeq:     make(map[ids.GroupName]uint64),
		freshSeq:    1,
		nextDSeqOut: make(map[ids.ProcessID]uint64),
		history:     make(map[ids.ProcessID]*sentStream),
		acks:        make(map[ids.ProcessID]map[ids.GroupName]uint64),
		fifo:        make(map[ids.EndpointID]*fifoBuf),
	}
}

// sentStream is the retained part of one destination's stream: the entries
// with dseqs min, min+1, ..., in order, since the coordinator numbers each
// destination's stream without gaps. A dseq indexes it directly.
type sentStream struct {
	min uint64
	q   ring.Ring[SeqData]
}

// get returns the retained entry for dseq, if any.
func (h *sentStream) get(dseq uint64) (*SeqData, bool) {
	if dseq < h.min || dseq-h.min >= uint64(h.q.Len()) {
		return nil, false
	}
	return h.q.At(int(dseq - h.min)), true
}

// popFront drops the oldest retained entry.
func (h *sentStream) popFront() {
	h.q.Pop()
	h.min++
}

// unstableMsg is one sequenced message awaiting stability.
type unstableMsg struct {
	seq uint64
	id  ids.MsgID
}

// earlyMsg is a Data or SeqData stamped with a view this process has not
// installed yet: its sender installed that view first.
type earlyMsg struct {
	from ids.EndpointID
	vid  ids.ViewID
	m    wire.Message
}

// historyLimit caps the coordinator's per-destination retransmission
// buffer and the held messages of later views.
const historyLimit = 16384

// Node is the virtual-synchrony engine for one process. It implements
// membership.Hooks; wire it into the membership service and route inbound
// vsync messages to Handle.
type Node struct {
	cfg Config
	clk clock.Clock
	// retryTimeout is how long an unacknowledged send, a parked client
	// copy or an undelivered stream gap waits before it is retried:
	// 4×AckInterval.
	retryTimeout time.Duration

	mu sync.Mutex
	// view is the current process-level view.
	view membership.View
	// blocked is true between a membership Block and the next Install;
	// while blocked the node neither initiates, sequences, nor delivers.
	blocked bool
	// blockedAt is when the current flush froze the node (zero when not
	// blocked); Install observes the membership phase duration from it.
	blockedAt time.Time

	// dir is the delivery-side group directory. It holds non-empty sets
	// only: the leave that empties a group deletes its entry, so dir — and
	// the flush state that ships it — scales with live groups.
	dir map[ids.GroupName]map[ids.ProcessID]bool
	// groupViewN counts directory events (joins/leaves) per group within
	// the current process view. Every view member delivers the same
	// directory stream, so the counters — and therefore GroupViewIDs —
	// agree across all members, including ones that joined the group
	// mid-view. A group's entry goes with its dir entry, at the same
	// stream position everywhere, so a re-created name restarts at N=1 at
	// every member.
	groupViewN map[ids.GroupName]uint64
	// lastGV is the last group view emitted per group (self-member groups
	// only), for computing join/leave deltas.
	lastGV map[ids.GroupName]GroupView

	// nextMsgSeq numbers this process's own messages (global, never
	// reused).
	nextMsgSeq uint64
	// nextSendSeq is the per-view FIFO counter for Data sent by this
	// process.
	nextSendSeq uint64
	// pending holds sent-but-unsequenced messages and parked client
	// copies.
	pending map[ids.MsgID]*pendingData
	// blockedQ holds multicasts initiated while blocked, to be sent in the
	// next view.
	blockedQ []Data
	// early holds messages of views later than the installed one, in
	// arrival order, until Install reaches their view. A commit reaches the
	// members of a view one after another; whoever installs first sends at
	// once, and without this its first messages would be dropped at peers
	// a step behind and recovered only by the retryTimeout retry or NACK —
	// with a FIFO gap stalling everything the sender multicasts meanwhile.
	early []earlyMsg

	// nextDSeq is the next stream position to deliver.
	nextDSeq uint64
	// dseqBuf holds the stream entries that arrived ahead of a gap, or
	// while the node was blocked. An entry that arrives in order while the
	// node is not blocked is delivered without passing through it.
	dseqBuf map[uint64]SeqData
	// recvMaxDSeq is the highest stream position known to exist.
	recvMaxDSeq uint64
	// lastNack rate-limits gap NACKs.
	lastNack time.Time
	// grp is the per-group delivery record for groups this process
	// receives (its member groups plus DirGroup).
	grp map[ids.GroupName]*groupRecv
	// stableIDs holds the messages of the view that the coordinator
	// reported stable (Stable.Done). A flush delivers none of them.
	stableIDs idSet

	// coord is the sequencing state; non-nil iff this process coordinates
	// the current view.
	coord *coordState

	events *eventQueue
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once
}

var _ membership.Hooks = (*Node)(nil)

// New creates a node. The initial view is the singleton {Self}, matching
// the membership service's initial view; the node coordinates it.
func New(cfg Config) *Node {
	if cfg.AckInterval == 0 {
		cfg.AckInterval = 25 * time.Millisecond
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	n := &Node{
		cfg:          cfg,
		clk:          clock.OrReal(cfg.Clock),
		retryTimeout: 4 * cfg.AckInterval,
		view:         membership.NewView(ids.ViewID{Epoch: 1, Coord: cfg.Self}, []ids.ProcessID{cfg.Self}),
		dir:          make(map[ids.GroupName]map[ids.ProcessID]bool),
		groupViewN:   make(map[ids.GroupName]uint64),
		lastGV:       make(map[ids.GroupName]GroupView),
		pending:      make(map[ids.MsgID]*pendingData),
		dseqBuf:      make(map[uint64]SeqData),
		grp:          map[ids.GroupName]*groupRecv{DirGroup: newGroupRecv(0)},
		stableIDs:    make(idSet),
		coord:        newCoordState(),
		events:       newEventQueue(),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	n.nextDSeq = 1
	return n
}

// Start launches the dispatch and housekeeping goroutines.
func (n *Node) Start() {
	go n.events.dispatch(n.cfg.OnEvent)
	go n.tickLoop()
}

// Stop terminates the node's goroutines. Pending events are discarded.
func (n *Node) Stop() {
	n.once.Do(func() {
		close(n.stop)
		<-n.done
		n.events.close()
	})
}

// View returns the current process-level view.
func (n *Node) View() membership.View {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.view
}

// GroupMembers returns the current membership of a group (directory
// intersected with the view), sorted.
func (n *Node) GroupMembers(g ids.GroupName) []ids.ProcessID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.groupMembersLocked(g)
}

func (n *Node) groupMembersLocked(g ids.GroupName) []ids.ProcessID {
	set := n.dir[g]
	var out []ids.ProcessID
	for _, m := range n.view.Members {
		if set[m] {
			out = append(out, m)
		}
	}
	return out
}

// DirGroups is the number of groups in the delivery-side directory, which
// holds the groups that have at least one member.
func (n *Node) DirGroups() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.dir)
}

// GroupsWithPrefix lists the known groups whose name begins with prefix
// and currently have at least one member in the view, sorted by name.
func (n *Node) GroupsWithPrefix(prefix string) []ids.GroupName {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []ids.GroupName
	for g := range n.dir {
		if g == DirGroup || len(g) < len(prefix) || string(g[:len(prefix)]) != prefix {
			continue
		}
		if len(n.groupMembersLocked(g)) > 0 {
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Multicast sends a message to a group with totally ordered, virtually
// synchronous delivery. The sender need not be a member. The call is
// asynchronous: delivery happens via OnEvent.
func (n *Node) Multicast(g ids.GroupName, payload wire.Message) error {
	return n.MulticastTC(g, payload, wire.TraceContext{})
}

// MulticastTC is Multicast carrying the sender's trace context; the
// context rides to every delivery of the message and surfaces in the
// MessageEvent, without influencing ordering or membership.
func (n *Node) MulticastTC(g ids.GroupName, payload wire.Message, tc wire.TraceContext) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextMsgSeq++
	d := Data{
		VID:     n.view.ID,
		ID:      ids.MsgID{Sender: ids.ProcessEndpoint(n.cfg.Self), Seq: n.nextMsgSeq},
		Group:   g,
		From:    ids.ProcessEndpoint(n.cfg.Self),
		Payload: payload,
		TC:      tc,
	}
	n.routeDataLocked(d)
	return nil
}

// Join makes this process a member of g. Membership becomes effective when
// the join announcement is delivered in total order; the resulting
// ViewEvent signals it.
func (n *Node) Join(g ids.GroupName) error {
	return n.Multicast(DirGroup, JoinGroup{Group: g, P: n.cfg.Self})
}

// Leave removes this process from g. The final ViewEvent for g at this
// process excludes it.
func (n *Node) Leave(g ids.GroupName) error {
	return n.Multicast(DirGroup, LeaveGroup{Group: g, P: n.cfg.Self})
}

// routeDataLocked stamps FIFO order and sends d toward the coordinator (or
// queues it while blocked). Caller holds n.mu.
func (n *Node) routeDataLocked(d Data) {
	if n.blocked {
		n.blockedQ = append(n.blockedQ, d)
		return
	}
	n.nextSendSeq++
	d.SendSeq = n.nextSendSeq
	d.VID = n.view.ID
	n.pending[d.ID] = &pendingData{d: d, lastSent: n.clk.Now()}
	n.sendDataLocked(d)
}

// sendDataLocked transmits d to the current coordinator (sequencing
// locally if this process coordinates). Caller holds n.mu.
func (n *Node) sendDataLocked(d Data) {
	coord := n.view.Coordinator()
	if coord == n.cfg.Self {
		n.coordAcceptLocked(ids.ProcessEndpoint(n.cfg.Self), d)
		return
	}
	_ = n.cfg.Send.Send(ids.ProcessEndpoint(coord), d)
}

// Handle processes one inbound vsync protocol message. Route every
// envelope whose payload is a vsync type here, passing the transport-level
// source.
func (n *Node) Handle(from ids.EndpointID, m wire.Message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch msg := m.(type) {
	case Data:
		if msg.VID.After(n.view.ID) {
			n.holdEarlyLocked(from, msg.VID, msg)
			return
		}
		n.handleDataLocked(from, msg)
	case SeqData:
		if msg.VID.After(n.view.ID) {
			n.holdEarlyLocked(from, msg.VID, msg)
			return
		}
		n.handleSeqDataLocked(msg)
	case DataAck:
		if msg.VID == n.view.ID {
			delete(n.pending, msg.ID)
		}
	case Ack:
		n.handleAckLocked(from, msg)
	case Stable:
		n.handleStableLocked(msg)
	case Nack:
		n.handleNackLocked(from, msg)
	case ClientSend:
		n.handleClientSendLocked(from, msg)
	case Resolve:
		reply := ResolveReply{Group: msg.Group, Members: n.groupMembersLocked(msg.Group)}
		_ = n.cfg.Send.Send(from, reply)
	}
}

// holdEarlyLocked keeps a message of a later view for Install. Past
// historyLimit it is dropped instead, which the sender's retry (Data) or
// this process's NACK (SeqData) repairs as it does a lost message.
func (n *Node) holdEarlyLocked(from ids.EndpointID, vid ids.ViewID, m wire.Message) {
	if len(n.early) < historyLimit {
		n.early = append(n.early, earlyMsg{from: from, vid: vid, m: m})
	}
}

// replayEarlyLocked handles the held messages of the view just installed,
// keeps those of views later still, and drops the rest.
func (n *Node) replayEarlyLocked() {
	held := n.early
	n.early = nil
	for _, e := range held {
		switch {
		case e.vid.After(n.view.ID):
			n.early = append(n.early, e)
		case e.vid == n.view.ID:
			switch m := e.m.(type) {
			case Data:
				n.handleDataLocked(e.from, m)
			case SeqData:
				n.handleSeqDataLocked(m)
			}
		}
	}
}

// --- coordinator: sequencing ---

// handleDataLocked receives a Data at what the sender believes is the
// coordinator.
func (n *Node) handleDataLocked(from ids.EndpointID, d Data) {
	if n.blocked || n.coord == nil || d.VID != n.view.ID {
		// Not sequencing: the sender's pending retry or the flush covers
		// the message.
		return
	}
	n.coordAcceptLocked(from, d)
}

// coordAcceptLocked runs FIFO reassembly, then sequencing, for one sender
// stream entry. Caller holds n.mu; n.coord is non-nil.
func (n *Node) coordAcceptLocked(from ids.EndpointID, d Data) {
	c := n.coord
	fb := c.fifo[from]
	if fb == nil {
		fb = &fifoBuf{next: 1, buf: make(map[uint64]Data)}
		c.fifo[from] = fb
	}
	switch {
	case d.SendSeq < fb.next:
		// Duplicate of something already processed: re-ack so the sender
		// stops retrying.
		n.ackDataLocked(from, d.ID)
		return
	case d.SendSeq > fb.next:
		fb.buf[d.SendSeq] = d
		return
	}
	n.sequenceLocked(from, d)
	fb.next++
	for {
		next, ok := fb.buf[fb.next]
		if !ok {
			return
		}
		delete(fb.buf, fb.next)
		n.sequenceLocked(from, next)
		fb.next++
	}
}

// ackDataLocked sends (or locally applies) a DataAck.
func (n *Node) ackDataLocked(from ids.EndpointID, id ids.MsgID) {
	if from == ids.ProcessEndpoint(n.cfg.Self) {
		delete(n.pending, id)
		return
	}
	_ = n.cfg.Send.Send(from, DataAck{VID: n.view.ID, ID: id})
}

// sequenceLocked assigns order to one message and fans it out.
func (n *Node) sequenceLocked(from ids.EndpointID, d Data) {
	c := n.coord
	if !c.seqd.add(d.ID) {
		n.ackDataLocked(from, d.ID)
		return
	}

	var baseSeq uint64
	if d.Group == DirGroup {
		switch p := d.Payload.(type) {
		case JoinGroup:
			// Stamp the group sequence point from which the joiner
			// participates, and admit it to the sequencer-side directory.
			baseSeq = n.coordNextSeqLocked(p.Group)
			set := c.seqDir[p.Group]
			if set == nil {
				set = make(map[ids.ProcessID]bool)
				c.seqDir[p.Group] = set
			}
			set[p.P] = true
			n.coordSetAckLocked(p.P, p.Group, baseSeq-1)
		case LeaveGroup:
			// A group's last leave drops its entries, so each stability
			// round covers the live groups, not every group the view has
			// seen.
			delete(c.seqDir[p.Group], p.P)
			delete(c.acks[p.P], p.Group)
			if len(c.seqDir[p.Group]) == 0 {
				delete(c.seqDir, p.Group)
				delete(c.nextSeq, p.Group)
			}
			if q := c.unstable[p.Group]; len(q) > 0 && len(n.destinationsLocked(p.Group)) == 0 {
				// No member is left to acknowledge the group's messages.
				// Each destination has them ahead of this leave in its
				// stream, so they are stable once the leave is.
				at := n.coordNextSeqLocked(DirGroup)
				for _, u := range q {
					c.unstable[DirGroup] = append(c.unstable[DirGroup], unstableMsg{seq: at, id: u.id})
				}
				delete(c.unstable, p.Group)
			}
		}
	}

	dests := n.destinationsLocked(d.Group)
	if len(dests) == 0 {
		// Nobody will deliver it: a late client copy for a dissolved
		// group, say. It takes no sequence number, so it re-creates no
		// record of the group.
		n.stableIDs.add(d.ID)
		n.ackDataLocked(from, d.ID)
		return
	}
	seq := n.coordNextSeqLocked(d.Group)
	c.nextSeq[d.Group] = seq + 1
	c.freshSeq++
	c.unstable[d.Group] = append(c.unstable[d.Group], unstableMsg{seq: seq, id: d.ID})
	for _, dest := range dests {
		dseq := c.nextDSeqOut[dest]
		if dseq == 0 {
			dseq = 1
		}
		c.nextDSeqOut[dest] = dseq + 1
		sd := SeqData{
			VID: d.VID, Group: d.Group, Seq: seq, DSeq: dseq,
			ID: d.ID, From: d.From, Payload: d.Payload, BaseSeq: baseSeq,
			TC: d.TC,
		}
		if dest == n.cfg.Self {
			n.handleSeqDataLocked(sd) // the coordinator never NACKs itself: no history
		} else {
			n.coordRetainLocked(dest, sd)
			_ = n.cfg.Send.Send(ids.ProcessEndpoint(dest), sd)
		}
	}
	n.ackDataLocked(from, d.ID)
}

// coordNextSeqLocked returns the next sequence number for g, starting a
// group without an entry at freshSeq.
func (n *Node) coordNextSeqLocked(g ids.GroupName) uint64 {
	c := n.coord
	s, ok := c.nextSeq[g]
	if !ok {
		s = c.freshSeq
		c.nextSeq[g] = s
	}
	return s
}

// coordSetAckLocked initializes a member's ack baseline for a group.
func (n *Node) coordSetAckLocked(p ids.ProcessID, g ids.GroupName, seq uint64) {
	m := n.coord.acks[p]
	if m == nil {
		m = make(map[ids.GroupName]uint64)
		n.coord.acks[p] = m
	}
	m[g] = seq
}

// destinationsLocked lists the current destinations for a group's
// messages: every view member for DirGroup, otherwise the sequencer-side
// directory intersected with the view.
func (n *Node) destinationsLocked(g ids.GroupName) []ids.ProcessID {
	if g == DirGroup {
		return n.view.Members
	}
	set := n.coord.seqDir[g]
	var out []ids.ProcessID
	for _, m := range n.view.Members {
		if set[m] {
			out = append(out, m)
		}
	}
	return out
}

// coordRetainLocked records a sent SeqData for NACK retransmission,
// bounding the buffer to historyLimit entries.
//
//hafw:hotpath
func (n *Node) coordRetainLocked(dest ids.ProcessID, sd SeqData) {
	c := n.coord
	h := c.history[dest]
	if h == nil {
		h = &sentStream{}
		c.history[dest] = h
	}
	if h.q.Len() == 0 {
		h.min = sd.DSeq
	} else if h.q.Len() == historyLimit {
		h.popFront()
	}
	h.q.Push(sd)
}

// --- member: delivery ---

// handleSeqDataLocked accepts one stream entry, buffering out-of-order and
// draining in strict dseq order.
//
//hafw:hotpath
func (n *Node) handleSeqDataLocked(sd SeqData) {
	if sd.VID != n.view.ID {
		return
	}
	if sd.DSeq > n.recvMaxDSeq {
		n.recvMaxDSeq = sd.DSeq
	}
	if sd.DSeq < n.nextDSeq {
		return // duplicate
	}
	if sd.DSeq == n.nextDSeq && !n.blocked {
		// In order: deliver it, then whatever it was the gap before.
		n.nextDSeq++
		n.deliverSeqLocked(sd)
		if len(n.dseqBuf) > 0 {
			n.drainLocked()
		}
		return
	}
	n.dseqBuf[sd.DSeq] = sd
	if n.blocked {
		return // frozen: collected by the flush, delivered at install
	}
	n.drainLocked()
}

// drainLocked delivers contiguous stream entries.
func (n *Node) drainLocked() {
	for {
		sd, ok := n.dseqBuf[n.nextDSeq]
		if !ok {
			return
		}
		delete(n.dseqBuf, n.nextDSeq)
		n.nextDSeq++
		n.deliverSeqLocked(sd)
	}
}

// deliverSeqLocked delivers one sequenced message at this member. It runs
// once per multicast per destination — the framework's busiest path.
//
//hafw:hotpath
func (n *Node) deliverSeqLocked(sd SeqData) {
	g := n.grp[sd.Group]
	if g == nil {
		// First traffic for a group we are joining mid-view arrives only
		// after the join announcement created the record; anything else is
		// a stray for a group we left.
		if sd.Group != DirGroup {
			return
		}
		g = newGroupRecv(0)
		n.grp[sd.Group] = g
	}
	if sd.Seq > g.upTo {
		g.upTo = sd.Seq
	}
	delete(n.pending, sd.ID)
	if g.deliveredIDs[sd.ID] {
		return
	}
	g.deliveredIDs[sd.ID] = true
	g.retained.Push(flushMsg{
		Group: sd.Group, Seq: sd.Seq, ID: sd.ID, From: sd.From,
		Payload: sd.Payload, BaseSeq: sd.BaseSeq, TC: sd.TC,
	})
	n.applyDeliveryLocked(sd.Group, sd.From, sd.ID, sd.Payload, sd.Seq, sd.BaseSeq, sd.TC)
}

// applyDeliveryLocked interprets one delivered message: directory updates
// change group views; application messages surface as events.
func (n *Node) applyDeliveryLocked(group ids.GroupName, from ids.EndpointID, id ids.MsgID, payload wire.Message, seq, baseSeq uint64, tc wire.TraceContext) {
	if group == DirGroup {
		switch p := payload.(type) {
		case JoinGroup:
			if !n.dirJoinLocked(p.Group, p.P) {
				return // duplicate join: no event anywhere
			}
			n.groupViewN[p.Group]++ // every member counts every event
			if p.P == n.cfg.Self && n.grp[p.Group] == nil {
				if baseSeq == 0 {
					baseSeq = 1
				}
				n.grp[p.Group] = newGroupRecv(baseSeq - 1)
			}
			if n.dir[p.Group][n.cfg.Self] {
				n.emitGroupViewLocked(p.Group)
			}
		case LeaveGroup:
			if n.dirLeaveLocked(p.Group, p.P, true) && p.P == n.cfg.Self {
				delete(n.grp, p.Group)
				delete(n.lastGV, p.Group)
			}
		}
		return
	}
	if !n.dir[group][n.cfg.Self] {
		return // not (or no longer) a member: do not surface
	}
	n.events.push(MessageEvent{Group: group, From: from, ID: id, Payload: payload, Seq: seq, TC: tc})
}

// dirJoinLocked adds p to g's directory set, reporting whether p is new
// there.
func (n *Node) dirJoinLocked(g ids.GroupName, p ids.ProcessID) bool {
	set := n.dir[g]
	if set == nil {
		set = make(map[ids.ProcessID]bool)
		n.dir[g] = set
	}
	if set[p] {
		return false
	}
	set[p] = true
	return true
}

// dirLeaveLocked removes p from g's directory set, reporting whether p was
// there. With emit, the leave counts as a directory event and the members
// it concerns — the stayers, and p itself if p is this process — see the
// view without p. The leave that empties the set then forgets the group.
// Every view member delivers the same directory stream, so all of them
// forget it at the same position, and a later join of the same name starts
// its GroupViewIDs over at N=1 everywhere.
func (n *Node) dirLeaveLocked(g ids.GroupName, p ids.ProcessID, emit bool) bool {
	set := n.dir[g]
	if !set[p] {
		return false
	}
	delete(set, p)
	if emit {
		n.groupViewN[g]++ // every member counts every event
		if p == n.cfg.Self || set[n.cfg.Self] {
			n.emitGroupViewLocked(g)
		}
	}
	if len(set) == 0 {
		delete(n.dir, g)
		delete(n.groupViewN, g)
	}
	return true
}

// emitGroupViewLocked pushes a ViewEvent for g reflecting the current
// directory and process view. The caller maintains groupViewN; this
// function only reads it, so members that start observing a group
// mid-view still agree on its GroupViewIDs.
func (n *Node) emitGroupViewLocked(g ids.GroupName) {
	if n.groupViewN[g] == 0 {
		n.groupViewN[g] = 1
	}
	gv := GroupView{
		ID:      GroupViewID{PV: n.view.ID, N: n.groupViewN[g]},
		Group:   g,
		Members: n.groupMembersLocked(g),
	}
	prev := n.lastGV[g].Members
	joined, left := diffMembers(prev, gv.Members)
	if n.dir[g][n.cfg.Self] {
		n.lastGV[g] = gv
	}
	n.events.push(ViewEvent{View: gv, Joined: joined, Left: left})
}

// diffMembers returns additions and removals between two sorted member
// lists.
func diffMembers(prev, cur []ids.ProcessID) (joined, left []ids.ProcessID) {
	in := func(set []ids.ProcessID, p ids.ProcessID) bool {
		for _, q := range set {
			if q == p {
				return true
			}
		}
		return false
	}
	for _, p := range cur {
		if !in(prev, p) {
			joined = append(joined, p)
		}
	}
	for _, p := range prev {
		if !in(cur, p) {
			left = append(left, p)
		}
	}
	return joined, left
}

// --- open groups: client fan-in ---

// handleClientSendLocked brings a client's open-group send into the total
// order on the client's behalf. The client fans every send out to all the
// members it knows, so a member forwards its copy only when nobody closer
// to the sequencer holds one: it parks the copy when the view coordinator
// is itself in the group (the coordinator sequences its own copy), and
// when the coordinator is outside the group all members but the lowest
// park. A parked copy whose message is not delivered within retryTimeout
// is forwarded after all (the other copy was lost), and a view change
// flushes it like an in-flight forward. Servers outside the group cannot
// tell who else was sent a copy and forward at once, which is what keeps a
// client's stale membership harmless.
//
//hafw:hotpath
func (n *Node) handleClientSendLocked(from ids.EndpointID, cs ClientSend) {
	if g := n.grp[cs.Group]; g != nil && g.deliveredIDs[cs.ID] {
		return // already delivered here: a late duplicate fan-out copy
	}
	if _, dup := n.pending[cs.ID]; dup {
		return // already forwarding (or parking) this one
	}
	d := Data{
		ID:      cs.ID,
		Group:   cs.Group,
		From:    from,
		Payload: cs.Payload,
		TC:      cs.TC,
	}
	if !n.blocked && n.parksCopyLocked(cs.Group) {
		n.pending[cs.ID] = &pendingData{d: d, lastSent: n.clk.Now(), parked: true}
		return
	}
	n.routeDataLocked(d)
}

// parksCopyLocked reports whether this process leaves forwarding a client
// copy for g to another holder of the copy.
func (n *Node) parksCopyLocked(g ids.GroupName) bool {
	set := n.dir[g]
	coord := n.view.Coordinator()
	if coord == n.cfg.Self || !set[n.cfg.Self] {
		return false
	}
	if set[coord] {
		return true
	}
	for _, m := range n.view.Members { // ascending
		if set[m] {
			return m != n.cfg.Self
		}
	}
	return false
}

// --- housekeeping: acks, stability, retries, gap NACKs ---

func (n *Node) tickLoop() {
	defer close(n.done)
	ticker := n.clk.NewTicker(n.cfg.AckInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C():
			n.tick()
		}
	}
}

func (n *Node) tick() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.blocked {
		return
	}
	now := n.clk.Now()

	// Pending retry: resend unacknowledged Data to the current
	// coordinator (covers lost Data, lost DataAcks, and coordinator
	// changes within a view). Parked copies that waited this long were
	// not sequenced from anyone else's copy: forward them now, in message
	// order so the stream positions they take do not depend on map order.
	var overdue []Data
	for _, p := range n.pending {
		if now.Sub(p.lastSent) < n.retryTimeout {
			continue
		}
		if p.parked {
			overdue = append(overdue, p.d)
			continue
		}
		p.lastSent = now
		p.d.VID = n.view.ID
		n.sendDataLocked(p.d)
	}
	sortData(overdue)
	for _, d := range overdue {
		n.routeDataLocked(d)
	}

	coordID := n.view.Coordinator()

	// Member: report delivery points.
	delivered := make(map[ids.GroupName]uint64, len(n.grp))
	for g, rec := range n.grp {
		delivered[g] = rec.upTo
	}
	ack := Ack{VID: n.view.ID, Delivered: delivered, DSeqUpTo: n.nextDSeq - 1}
	if coordID == n.cfg.Self {
		n.applyAckLocked(n.cfg.Self, ack)
	} else {
		_ = n.cfg.Send.Send(ids.ProcessEndpoint(coordID), ack)
	}

	// Member: NACK stream gaps that have persisted.
	if n.recvMaxDSeq >= n.nextDSeq && now.Sub(n.lastNack) >= n.retryTimeout && coordID != n.cfg.Self {
		n.lastNack = now
		var missing []uint64
		limit := n.recvMaxDSeq
		if limit > n.nextDSeq+255 {
			limit = n.nextDSeq + 255
		}
		for d := n.nextDSeq; d <= limit; d++ {
			if _, ok := n.dseqBuf[d]; !ok {
				missing = append(missing, d)
			}
		}
		if len(missing) > 0 {
			_ = n.cfg.Send.Send(ids.ProcessEndpoint(coordID), Nack{VID: n.view.ID, DSeqs: missing})
		}
	}

	// Coordinator: compute and broadcast stability.
	if n.coord != nil {
		stable := n.stabilityLocked()
		n.retireStableLocked(stable)
		done := n.stableIDs.spans()
		n.applyStableLocked(Stable{VID: n.view.ID, StableTo: stable, MaxDSeq: n.nextDSeq - 1})
		for _, m := range n.view.Members {
			if m == n.cfg.Self {
				continue
			}
			var maxDSeq uint64
			if next := n.coord.nextDSeqOut[m]; next > 0 {
				maxDSeq = next - 1
			}
			st := Stable{VID: n.view.ID, StableTo: stable, MaxDSeq: maxDSeq, Done: done}
			_ = n.cfg.Send.Send(ids.ProcessEndpoint(m), st)
		}
	}
}

// stabilityLocked computes, per group, the highest seq delivered by every
// current destination of the group.
func (n *Node) stabilityLocked() map[ids.GroupName]uint64 {
	c := n.coord
	out := make(map[ids.GroupName]uint64)
	groups := make(map[ids.GroupName]bool, len(c.seqDir)+1)
	groups[DirGroup] = true
	for g := range c.seqDir {
		groups[g] = true
	}
	for g := range groups {
		members := n.destinationsLocked(g)
		if len(members) == 0 {
			continue
		}
		var min uint64
		first := true
		for _, m := range members {
			v := c.acks[m][g]
			if first || v < min {
				min = v
				first = false
			}
		}
		out[g] = min
	}
	return out
}

// retireStableLocked moves the messages that stable covers from the
// coordinator's unstable lists into stableIDs.
func (n *Node) retireStableLocked(stable map[ids.GroupName]uint64) {
	c := n.coord
	for g, to := range stable {
		q := c.unstable[g]
		i := 0
		for ; i < len(q) && q[i].seq <= to; i++ {
			n.stableIDs.add(q[i].id)
		}
		if i == len(q) {
			delete(c.unstable, g)
		} else {
			c.unstable[g] = q[i:]
		}
	}
}

func (n *Node) handleAckLocked(from ids.EndpointID, a Ack) {
	p, ok := from.Process()
	if !ok || n.coord == nil || a.VID != n.view.ID {
		return
	}
	n.applyAckLocked(p, a)
}

func (n *Node) applyAckLocked(p ids.ProcessID, a Ack) {
	c := n.coord
	if c == nil {
		return
	}
	m := c.acks[p]
	if m == nil {
		m = make(map[ids.GroupName]uint64)
		c.acks[p] = m
	}
	for g, seq := range a.Delivered {
		// An Ack built before the member delivered its leave still lists
		// the group; counting it would bring the entry back.
		if g != DirGroup && !c.seqDir[g][p] {
			continue
		}
		if seq > m[g] {
			m[g] = seq
		}
	}
	// Prune the retransmission history up to the member's contiguous
	// delivery point.
	if h := c.history[p]; h != nil {
		for h.q.Len() > 0 && h.min <= a.DSeqUpTo {
			h.popFront()
		}
	}
}

func (n *Node) handleStableLocked(st Stable) {
	if st.VID != n.view.ID {
		return
	}
	n.applyStableLocked(st)
}

func (n *Node) applyStableLocked(st Stable) {
	n.stableIDs.addSpans(st.Done)
	for g, seq := range st.StableTo {
		rec := n.grp[g]
		if rec == nil {
			continue
		}
		for rec.retained.Len() > 0 && rec.retained.At(0).Seq <= seq {
			delete(rec.deliveredIDs, rec.retained.At(0).ID)
			rec.retained.Pop()
		}
	}
	if st.MaxDSeq > n.recvMaxDSeq {
		n.recvMaxDSeq = st.MaxDSeq
	}
	if !n.blocked {
		n.drainLocked()
	}
}

func (n *Node) handleNackLocked(from ids.EndpointID, nk Nack) {
	p, ok := from.Process()
	if !ok || n.coord == nil || nk.VID != n.view.ID {
		return
	}
	h := n.coord.history[p]
	if h == nil {
		return
	}
	for _, dseq := range nk.DSeqs {
		if sd, ok := h.get(dseq); ok {
			_ = n.cfg.Send.Send(from, *sd)
		}
	}
}

// --- membership hooks: block / collect / install (the flush) ---

// Block implements membership.Hooks: freeze initiation, sequencing, and
// delivery so the view's message set stabilizes.
func (n *Node) Block() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.blocked {
		n.blockedAt = n.clk.Now()
	}
	n.blocked = true
}

// Collect implements membership.Hooks: snapshot everything this process
// knows about the dying view.
func (n *Node) Collect() []byte {
	n.mu.Lock()
	defer n.mu.Unlock()

	fs := flushState{
		VID:  n.view.ID,
		UpTo: make(map[ids.GroupName]uint64, len(n.grp)),
		Dir:  make(map[ids.GroupName][]ids.ProcessID, len(n.dir)),
	}
	for g, rec := range n.grp {
		fs.UpTo[g] = rec.upTo
		for i := 0; i < rec.retained.Len(); i++ {
			fs.Msgs = append(fs.Msgs, *rec.retained.At(i))
		}
	}
	// Buffered-but-undelivered stream entries are knowledge too.
	for _, sd := range n.dseqBuf {
		fs.Msgs = append(fs.Msgs, flushMsg{
			Group: sd.Group, Seq: sd.Seq, ID: sd.ID, From: sd.From,
			Payload: sd.Payload, BaseSeq: sd.BaseSeq, TC: sd.TC,
		})
	}
	for _, p := range n.pending {
		fs.Pending = append(fs.Pending, p.d)
	}
	sortData(fs.Pending)
	fs.Done = n.stableIDs.spans()
	for g, set := range n.dir {
		ms := make([]ids.ProcessID, 0, len(set))
		for p := range set {
			ms = append(ms, p)
		}
		fs.Dir[g] = membership.SortProcesses(ms)
	}

	blob, err := wire.EncodeMessage(fs)
	if err != nil {
		// flushState carries only registered message types; failure here
		// is a programming error caught by tests.
		panic("vsync: cannot encode flush state: " + err.Error())
	}
	return blob
}

// Install implements membership.Hooks: merge co-movers' states, deliver
// the union deterministically, reset per-view machinery, emit new group
// views, and release blocked multicasts into the new view.
func (n *Node) Install(v membership.View, states map[ids.ProcessID][]byte) {
	n.mu.Lock()

	oldVID := n.view.ID

	type mergedGroup struct {
		msgs map[uint64]flushMsg
		max  uint64
	}
	merged := make(map[ids.GroupName]*mergedGroup)
	var pendings []Data
	pendingSeen := make(map[ids.MsgID]bool)
	// flushed collects the IDs of every message this flush carries,
	// sequenced or not: the old view delivers them, so a copy still waiting
	// in blockedQ must not be sent again in the new one.
	flushed := make(map[ids.MsgID]bool)
	// stable collects the messages any co-mover learned were stable: every
	// destination delivered them, so no copy of one is delivered or sent
	// again, wherever the copy waits.
	stable := make(idSet)
	dirMerge := make(map[ids.GroupName]map[ids.ProcessID]bool)
	// strangers are members whose flush state came from a different
	// previous view: the far side of a healing partition, or a process
	// that restarted faster than failure detection. Either way their
	// volatile group state did not move continuously into this view, so
	// the fresh group views below must report them as joiners even when
	// the member set looks unchanged — that is what makes the layers
	// above run their state exchange with them.
	strangers := make(map[ids.ProcessID]bool)

	addDir := func(g ids.GroupName, ps []ids.ProcessID) {
		if len(ps) == 0 {
			// A dissolved group, as a flush state from an earlier build
			// lists it: adopting it would bring it back to life.
			return
		}
		set := dirMerge[g]
		if set == nil {
			set = make(map[ids.ProcessID]bool)
			dirMerge[g] = set
		}
		for _, p := range ps {
			set[p] = true
		}
	}
	// Local directory participates in the merge.
	for g, set := range n.dir {
		for p := range set {
			addDir(g, []ids.ProcessID{p})
		}
	}

	for p, blob := range states {
		if len(blob) == 0 {
			if p != n.cfg.Self {
				strangers[p] = true
			}
			continue
		}
		m, err := wire.DecodeMessage(blob)
		if err != nil {
			continue
		}
		fs, ok := m.(flushState)
		if !ok {
			continue
		}
		for g, ps := range fs.Dir {
			addDir(g, ps)
		}
		if fs.VID != oldVID {
			if p != n.cfg.Self {
				strangers[p] = true
			}
			continue // a stranger from another partition: directory only
		}
		stable.addSpans(fs.Done)
		for _, fm := range fs.Msgs {
			mg := merged[fm.Group]
			if mg == nil {
				mg = &mergedGroup{msgs: make(map[uint64]flushMsg)}
				merged[fm.Group] = mg
			}
			if _, dup := mg.msgs[fm.Seq]; !dup {
				mg.msgs[fm.Seq] = fm
			}
			if fm.Seq > mg.max {
				mg.max = fm.Seq
			}
			flushed[fm.ID] = true
		}
		for _, pd := range fs.Pending {
			flushed[pd.ID] = true
			if !pendingSeen[pd.ID] {
				pendingSeen[pd.ID] = true
				pendings = append(pendings, pd)
			}
		}
	}

	// Adopt the merged directory before delivering: the joins and leaves
	// among the flushed messages then change the directory the new view
	// starts from. (Adopted afterwards, it would overwrite them, and a
	// join caught in a view change would be lost for good.)
	n.dir = dirMerge

	// Deliver the merged sequenced messages in deterministic order:
	// groups sorted by name (DirGroup's name sorts first, so membership
	// effects precede the traffic they gate), each group in seq order,
	// only above this member's delivery point.
	groups := make([]ids.GroupName, 0, len(merged))
	for g := range merged {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
	for _, gname := range groups {
		mg := merged[gname]
		rec := n.grp[gname]
		if rec == nil {
			continue // not a member during the old view
		}
		// A group's numbers may skip (one lost everywhere, or a group
		// started at freshSeq), so walk the merged ones, not the range.
		seqs := make([]uint64, 0, len(mg.msgs))
		for seq := range mg.msgs {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		above := sort.Search(len(seqs), func(i int) bool { return seqs[i] > rec.upTo })
		if gname == DirGroup {
			n.redoDirLocked(mg.msgs, seqs[:above])
		}
		for _, seq := range seqs[above:] {
			fm := mg.msgs[seq]
			rec.upTo = seq
			delete(n.pending, fm.ID)
			if rec.deliveredIDs[fm.ID] {
				continue
			}
			rec.deliveredIDs[fm.ID] = true
			n.applyDeliveryLocked(gname, fm.From, fm.ID, fm.Payload, fm.Seq, fm.BaseSeq, fm.TC)
		}
	}

	// Deliver never-sequenced messages deterministically after all
	// sequenced ones (sorted when collected; merge preserved order).
	for _, pd := range pendings {
		delete(n.pending, pd.ID)
		if stable.has(pd.ID) {
			continue
		}
		if pd.Group == DirGroup {
			// Unsequenced directory changes: apply; a joiner starts after
			// everything merged in this flush.
			if jg, ok := pd.Payload.(JoinGroup); ok && jg.P == n.cfg.Self && n.grp[jg.Group] == nil {
				var max uint64
				if mg := merged[jg.Group]; mg != nil {
					max = mg.max
				}
				n.grp[jg.Group] = newGroupRecv(max)
			}
			n.applyDeliveryLocked(DirGroup, pd.From, pd.ID, pd.Payload, 0, 0, pd.TC)
			continue
		}
		rec := n.grp[pd.Group]
		if rec == nil {
			continue
		}
		if rec.deliveredIDs[pd.ID] {
			continue
		}
		rec.deliveredIDs[pd.ID] = true
		n.applyDeliveryLocked(pd.Group, pd.From, pd.ID, pd.Payload, 0, 0, pd.TC)
	}

	// The membership phase of this view change ran from the freeze to
	// here: agreement plus flush-state exchange plus the merge above.
	if !n.blockedAt.IsZero() {
		n.cfg.Metrics.Histogram(`viewchange_duration_seconds{phase="membership"}`).Observe(n.clk.Since(n.blockedAt))
		n.blockedAt = time.Time{}
	}
	n.cfg.Metrics.Counter("view_installs_total").Inc()

	// Adopt the new view; reset per-view state.
	n.view = v
	n.blocked = false
	n.nextDSeq = 1
	n.recvMaxDSeq = 0
	n.dseqBuf = make(map[uint64]SeqData)
	n.nextSendSeq = 0
	n.pending = make(map[ids.MsgID]*pendingData)
	n.stableIDs = make(idSet)
	// Every group present in the merged directory restarts its event
	// counter at 1 for the new view — at every member, regardless of
	// membership, so later increments stay aligned.
	n.groupViewN = make(map[ids.GroupName]uint64, len(n.dir))
	for g := range n.dir {
		n.groupViewN[g] = 1
	}
	newGrp := map[ids.GroupName]*groupRecv{DirGroup: newGroupRecv(0)}
	for g, set := range n.dir {
		if set[n.cfg.Self] {
			newGrp[g] = newGroupRecv(0)
		}
	}
	n.grp = newGrp

	if v.Coordinator() == n.cfg.Self {
		n.coord = newCoordState()
		for g, set := range n.dir {
			cp := make(map[ids.ProcessID]bool, len(set))
			for p := range set {
				cp[p] = true
			}
			n.coord.seqDir[g] = cp
		}
	} else {
		n.coord = nil
	}

	// Forget strangers' old group presence: diffing the fresh views
	// against a history that still lists them would hide their (re)join.
	if len(strangers) > 0 {
		for g, gv := range n.lastGV {
			kept := make([]ids.ProcessID, 0, len(gv.Members))
			for _, p := range gv.Members {
				if !strangers[p] {
					kept = append(kept, p)
				}
			}
			gv.Members = kept
			n.lastGV[g] = gv
		}
	}

	// Emit fresh group views for every group this process belongs to.
	memberGroups := make([]ids.GroupName, 0, len(n.dir))
	for g, set := range n.dir {
		if set[n.cfg.Self] {
			memberGroups = append(memberGroups, g)
		}
	}
	sort.Slice(memberGroups, func(i, j int) bool { return memberGroups[i] < memberGroups[j] })
	for _, g := range memberGroups {
		n.emitGroupViewLocked(g)
	}

	// What peers that installed this view earlier already sent comes
	// first, then the multicasts initiated here while blocked — except a
	// client's copy that arrived here during the freeze while another
	// server's copy of it made it into the flush, or after its message
	// was stable: the old view delivered that message, and sequencing it
	// again would deliver it twice.
	n.replayEarlyLocked()
	q := n.blockedQ
	n.blockedQ = nil
	for _, d := range q {
		if !flushed[d.ID] && !stable.has(d.ID) {
			n.routeDataLocked(d)
		}
	}
	n.mu.Unlock()
}

// redoDirLocked re-applies to the merged directory the joins and leaves
// among a flush's directory messages that this member delivered before the
// view change, given by their sequence numbers in order. The merge is a
// union of the co-movers' directories, each as of its own delivery point,
// so a leave one member delivered and another had not comes back with the
// laggard's directory; each member then applies the flushed messages above
// its own delivery point, and with this, every member ends at the same
// directory.
func (n *Node) redoDirLocked(msgs map[uint64]flushMsg, seqs []uint64) {
	for _, seq := range seqs {
		switch p := msgs[seq].Payload.(type) {
		case JoinGroup:
			n.dirJoinLocked(p.Group, p.P)
		case LeaveGroup:
			n.dirLeaveLocked(p.Group, p.P, false)
		}
	}
}

// sortData orders messages by ID (sender, then the sender's sequence).
func sortData(ds []Data) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.ID.Sender != b.ID.Sender {
			return a.ID.Sender.Less(b.ID.Sender)
		}
		return a.ID.Seq < b.ID.Seq
	})
}

// --- event queue ---

// eventQueue is an unbounded FIFO feeding the single dispatch goroutine.
// Its ring reuses its storage as the dispatcher drains it, so a delivered
// event is unreachable from the queue once popped.
type eventQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  ring.Ring[Event]
	closed bool
}

func newEventQueue() *eventQueue {
	q := &eventQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *eventQueue) push(e Event) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.items.Push(e)
	q.cond.Signal()
}

func (q *eventQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

func (q *eventQueue) dispatch(fn func(Event)) {
	for {
		q.mu.Lock()
		for q.items.Len() == 0 && !q.closed {
			q.cond.Wait()
		}
		if q.items.Len() == 0 && q.closed {
			q.mu.Unlock()
			return
		}
		e := q.items.Pop()
		q.mu.Unlock()
		if fn != nil {
			fn(e)
		}
	}
}
