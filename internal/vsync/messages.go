package vsync

import (
	"hafw/internal/ids"
	"hafw/internal/wire"
)

// Data carries one multicast from its sender (or a server forwarding for a
// client) to the view coordinator for sequencing.
type Data struct {
	// VID is the process view the sender believes is current. The
	// coordinator discards data from other views; the sender's pending
	// retry and the view-change flush recover the message.
	VID ids.ViewID
	// SendSeq is the sending process's per-view FIFO counter, starting at
	// 1. The coordinator reassembles each sender's stream in SendSeq order
	// before sequencing, which preserves causal (sender) order across
	// groups even though the transport reorders.
	SendSeq uint64
	// ID is the message's globally unique identifier.
	ID ids.MsgID
	// Group is the destination group.
	Group ids.GroupName
	// From is the original sender endpoint (differs from the transport
	// source when a server forwards a client's open-group send).
	From ids.EndpointID
	// Payload is the application message.
	Payload wire.Message
	// TC is the sender's trace context, propagated verbatim for the
	// observability layer; it never affects protocol behavior.
	TC wire.TraceContext
}

// WireName implements wire.Message.
func (Data) WireName() string { return "vsync.Data" }

// SeqData carries one sequenced multicast from the coordinator to one
// destination.
type SeqData struct {
	// VID is the process view the message was sequenced in.
	VID ids.ViewID
	// Group is the destination group.
	Group ids.GroupName
	// Seq is the per-group total-order sequence number.
	Seq uint64
	// DSeq is the per-destination stream sequence number; receivers
	// deliver strictly in DSeq order.
	DSeq uint64
	// ID, From, Payload describe the original message.
	ID      ids.MsgID
	From    ids.EndpointID
	Payload wire.Message
	// BaseSeq is set only on directory join announcements: the group
	// sequence number from which the joiner participates. Pre-join
	// sequence numbers are never delivered to the joiner.
	BaseSeq uint64
	// TC is the original sender's trace context (copied from Data),
	// propagated verbatim for the observability layer.
	TC wire.TraceContext
}

// WireName implements wire.Message.
func (SeqData) WireName() string { return "vsync.SeqData" }

// DataAck tells a sender the coordinator has sequenced (or deduplicated)
// its message, so the sender can clear it from the pending-retry set.
type DataAck struct {
	// VID is the coordinator's view.
	VID ids.ViewID
	// ID identifies the acknowledged message.
	ID ids.MsgID
}

// WireName implements wire.Message.
func (DataAck) WireName() string { return "vsync.DataAck" }

// Ack is a member's periodic delivery report to the coordinator, enabling
// stability (garbage collection of retained messages) and retransmission
// pruning.
type Ack struct {
	// VID is the member's current view.
	VID ids.ViewID
	// Delivered maps each group to the highest contiguous sequence number
	// the member has delivered.
	Delivered map[ids.GroupName]uint64
	// DSeqUpTo is the highest contiguous dseq the member has delivered.
	DSeqUpTo uint64
}

// WireName implements wire.Message.
func (Ack) WireName() string { return "vsync.Ack" }

// Stable is the coordinator's periodic broadcast of stability points and
// the destination's stream high-water mark (so idle-tail losses are
// detected).
type Stable struct {
	// VID is the coordinator's view.
	VID ids.ViewID
	// StableTo maps each group to the highest sequence number delivered by
	// every current member; retained messages up to it may be pruned.
	StableTo map[ids.GroupName]uint64
	// MaxDSeq is the highest dseq the coordinator has sent to this
	// destination.
	MaxDSeq uint64
	// Done lists the messages of this view that are stable: delivered at
	// every destination. A member prunes its delivery dedup down to the
	// unstable messages and keeps the union of these lists instead, until
	// the view ends, so that a flush never delivers a late copy of a
	// message it has already delivered.
	Done []SeqSpan
}

// WireName implements wire.Message.
func (Stable) WireName() string { return "vsync.Stable" }

// SeqSpan is a closed range of one sender's message numbers (MsgID.Seq).
type SeqSpan struct {
	Sender ids.EndpointID
	Lo, Hi uint64
}

// Nack requests retransmission of specific dseq stream entries.
type Nack struct {
	// VID is the requester's view.
	VID ids.ViewID
	// DSeqs lists the missing stream positions.
	DSeqs []uint64
}

// WireName implements wire.Message.
func (Nack) WireName() string { return "vsync.Nack" }

// JoinGroup announces that a process joins a group. It travels as the
// payload of a Data message in DirGroup.
type JoinGroup struct {
	// Group is the joined group.
	Group ids.GroupName
	// P is the joining process.
	P ids.ProcessID
}

// WireName implements wire.Message.
func (JoinGroup) WireName() string { return "vsync.JoinGroup" }

// LeaveGroup announces that a process leaves a group.
type LeaveGroup struct {
	// Group is the left group.
	Group ids.GroupName
	// P is the leaving process.
	P ids.ProcessID
}

// WireName implements wire.Message.
func (LeaveGroup) WireName() string { return "vsync.LeaveGroup" }

// ClientSend is a client's open-group send, fanned out to the group
// members the client can resolve; each receiving server forwards it into
// the total order and the coordinator deduplicates by ID.
type ClientSend struct {
	// Group is the destination group.
	Group ids.GroupName
	// ID is the client-assigned unique message identifier.
	ID ids.MsgID
	// Payload is the application message.
	Payload wire.Message
	// TC is the client's trace context, propagated verbatim for the
	// observability layer.
	TC wire.TraceContext
}

// WireName implements wire.Message.
func (ClientSend) WireName() string { return "vsync.ClientSend" }

// Resolve asks a server for the current membership of a group.
type Resolve struct {
	// Group is the group to resolve.
	Group ids.GroupName
}

// WireName implements wire.Message.
func (Resolve) WireName() string { return "vsync.Resolve" }

// ResolveReply answers Resolve with the server's current knowledge. It
// travels server → client, so the handler lives in the gcs client.
//
//hafw:handledby hafw/internal/gcs
type ResolveReply struct {
	// Group echoes the request.
	Group ids.GroupName
	// Members is the group's membership intersected with the server's
	// current process view.
	Members []ids.ProcessID
}

// WireName implements wire.Message.
func (ResolveReply) WireName() string { return "vsync.ResolveReply" }

// flushMsg is one sequenced message carried in a flush state blob.
type flushMsg struct {
	Group   ids.GroupName
	Seq     uint64
	ID      ids.MsgID
	From    ids.EndpointID
	Payload wire.Message
	BaseSeq uint64
	TC      wire.TraceContext
}

// flushState is the synchronization blob exchanged through the membership
// layer's Collect/Install hooks.
type flushState struct {
	// VID is the view this state describes; states from other views only
	// contribute their directory during a merge.
	VID ids.ViewID
	// UpTo maps each group to the highest contiguous seq delivered here.
	UpTo map[ids.GroupName]uint64
	// Msgs are the sequenced-but-possibly-unstable messages known here
	// (delivered or still buffered).
	Msgs []flushMsg
	// Pending are messages sent (or forwarded) from here that were never
	// observed sequenced.
	Pending []Data
	// Dir is this process's group directory snapshot: live groups only.
	// Install ignores an empty list, which earlier builds sent for every
	// group that had dissolved.
	Dir map[ids.GroupName][]ids.ProcessID
	// Done is the union of the Stable.Done lists received here: the
	// messages a flush must not deliver again.
	Done []SeqSpan
}

// WireName implements wire.Message. flushState crosses the network inside
// membership Accept/Commit blobs, so it must be registered like any other
// message.
func (flushState) WireName() string { return "vsync.flushState" }

func init() {
	wire.Register(Data{})
	wire.Register(SeqData{})
	wire.Register(DataAck{})
	wire.Register(Ack{})
	wire.Register(Stable{})
	wire.Register(Nack{})
	wire.Register(JoinGroup{})
	wire.Register(LeaveGroup{})
	wire.Register(ClientSend{})
	wire.Register(Resolve{})
	wire.Register(ResolveReply{})
	wire.Register(flushState{})
}
