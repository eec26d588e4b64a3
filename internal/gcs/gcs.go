// Package gcs assembles the group communication system the paper builds
// on: it wires a transport endpoint, the heartbeat failure detector, the
// partitionable membership service, and the virtual-synchrony engine into
// a single Process with a small API — Join, Leave, Multicast, point-to-
// point Send, and a serialized event stream of message deliveries and
// group view changes.
//
// The properties the framework relies on (paper Section 3.2) and where
// they come from:
//
//   - membership service with precise views in stable runs  → membership
//   - reliable, totally ordered multicast per group          → vsync
//   - causal order across groups                             → vsync (one
//     agreed stream per view, delivered in per-destination order)
//   - virtually synchronous delivery                         → membership
//     flush hooks + vsync Collect/Install
//   - open groups (non-members, incl. clients, may send)     → vsync
//     client fan-in and server relays
//
// The whole stack shares one injected clock.Clock, so the simulator can
// run it in virtual time.
//
//hafw:simclock
package gcs

import (
	"errors"
	"time"

	"hafw/internal/clock"
	"hafw/internal/fd"
	"hafw/internal/ids"
	"hafw/internal/membership"
	"hafw/internal/metrics"
	"hafw/internal/transport"
	"hafw/internal/vsync"
	"hafw/internal/wire"
)

// Event re-exports the vsync event stream types for API convenience.
type Event = vsync.Event

// MessageEvent re-exports vsync.MessageEvent.
type MessageEvent = vsync.MessageEvent

// ViewEvent re-exports vsync.ViewEvent.
type ViewEvent = vsync.ViewEvent

// GroupView re-exports vsync.GroupView.
type GroupView = vsync.GroupView

// Config parameterizes a Process.
type Config struct {
	// Self is the local process identity.
	Self ids.ProcessID
	// Transport is the attached network endpoint. The Process takes over
	// its handler.
	Transport transport.Transport
	// World lists the processes to monitor initially (the potential
	// service group). More can be added with AddPeer.
	World []ids.ProcessID
	// OnEvent receives group deliveries and view changes, serialized.
	OnEvent func(Event)
	// OnDirect receives point-to-point messages that are not GCS protocol
	// traffic (for example client requests addressed to this server, or on
	// the client side, server responses).
	OnDirect func(from ids.EndpointID, m wire.Message)

	// FDInterval/FDTimeout tune the failure detector (zero → 20ms/100ms).
	FDInterval, FDTimeout time.Duration
	// RoundTimeout tunes membership view agreement (zero → 150ms).
	RoundTimeout time.Duration
	// AckInterval tunes vsync housekeeping (zero → 25ms).
	AckInterval time.Duration
	// Metrics receives GCS-stack telemetry (view-change phase latency and
	// the like); shared downward into vsync. Nil leaves each layer on a
	// private registry.
	Metrics *metrics.Registry
	// Clock is the time source shared downward into the failure detector,
	// membership, and vsync. Nil means the wall clock.
	Clock clock.Clock
}

// Process is one GCS endpoint: a server process that can join groups,
// multicast, and observe views.
type Process struct {
	cfg  Config
	tr   transport.Transport
	det  *fd.Detector
	mem  *membership.Service
	node *vsync.Node
}

// NewProcess wires the stack together. Call Start to begin.
func NewProcess(cfg Config) (*Process, error) {
	if cfg.Self == ids.Nil {
		return nil, errors.New("gcs: Config.Self is required")
	}
	if cfg.Transport == nil {
		return nil, errors.New("gcs: Config.Transport is required")
	}
	p := &Process{cfg: cfg, tr: cfg.Transport}

	p.node = vsync.New(vsync.Config{
		Self:        cfg.Self,
		Send:        p.tr,
		OnEvent:     cfg.OnEvent,
		AckInterval: cfg.AckInterval,
		Metrics:     cfg.Metrics,
		Clock:       cfg.Clock,
	})
	p.mem = membership.New(membership.Config{
		Self:         cfg.Self,
		Send:         p.tr,
		Hooks:        p.node,
		RoundTimeout: cfg.RoundTimeout,
		Clock:        cfg.Clock,
	})
	p.det = fd.New(fd.Config{
		Self:     cfg.Self,
		Interval: cfg.FDInterval,
		Timeout:  cfg.FDTimeout,
		Send:     p.tr,
		OnChange: p.mem.ReachableChanged,
		Clock:    cfg.Clock,
	})
	p.det.SetPeers(cfg.World)

	p.tr.SetHandler(p.route)
	return p, nil
}

// route demultiplexes inbound envelopes to the protocol layers.
func (p *Process) route(env wire.Envelope) {
	if from, ok := env.From.Process(); ok {
		p.det.Observe(from)
	}
	switch env.Payload.(type) {
	case fd.Heartbeat:
		// Liveness only; already observed above.
	case membership.Propose, membership.Accept, membership.Commit, membership.Nudge:
		if from, ok := env.From.Process(); ok {
			p.mem.Handle(from, env.Payload)
		}
	case vsync.Data, vsync.SeqData, vsync.DataAck, vsync.Ack, vsync.Stable,
		vsync.Nack, vsync.ClientSend, vsync.Resolve, vsync.ResolveReply:
		p.node.Handle(env.From, env.Payload)
	default:
		if p.cfg.OnDirect != nil {
			p.cfg.OnDirect(env.From, env.Payload)
		}
	}
}

// Start launches the stack.
func (p *Process) Start() {
	p.node.Start()
	p.mem.Start()
	p.det.Start()
}

// Stop halts the stack and closes the transport endpoint.
func (p *Process) Stop() {
	p.det.Stop()
	p.mem.Stop()
	p.node.Stop()
	_ = p.tr.Close()
}

// Self returns the local process identity.
func (p *Process) Self() ids.ProcessID { return p.cfg.Self }

// AddPeer adds a process to the monitored world (for dynamically spawned
// servers).
func (p *Process) AddPeer(q ids.ProcessID) { p.det.AddPeer(q) }

// View returns the current process-level view.
func (p *Process) View() membership.View { return p.node.View() }

// Join makes this process a member of g; the membership change surfaces as
// a ViewEvent once totally ordered.
func (p *Process) Join(g ids.GroupName) error { return p.node.Join(g) }

// Leave removes this process from g.
func (p *Process) Leave(g ids.GroupName) error { return p.node.Leave(g) }

// Multicast sends m to group g with total order and virtual synchrony.
func (p *Process) Multicast(g ids.GroupName, m wire.Message) error {
	return p.node.Multicast(g, m)
}

// MulticastTC is Multicast carrying the sender's trace context for the
// observability layer; the context rides to every delivery of m.
func (p *Process) MulticastTC(g ids.GroupName, m wire.Message, tc wire.TraceContext) error {
	return p.node.MulticastTC(g, m, tc)
}

// GroupMembers returns g's current membership as known here.
func (p *Process) GroupMembers(g ids.GroupName) []ids.ProcessID {
	return p.node.GroupMembers(g)
}

// GroupsWithPrefix lists known non-empty groups by name prefix.
func (p *Process) GroupsWithPrefix(prefix string) []ids.GroupName {
	return p.node.GroupsWithPrefix(prefix)
}

// DirGroups is the number of groups in the local group directory: live
// groups, not every group this process has seen.
func (p *Process) DirGroups() int { return p.node.DirGroups() }

// Send transmits a point-to-point message (typically a response to a
// client), outside any group ordering.
func (p *Process) Send(to ids.EndpointID, m wire.Message) error {
	return p.tr.Send(to, m)
}
