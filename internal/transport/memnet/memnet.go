// Package memnet implements an in-memory network for tests, examples, and
// experiments. It delivers wire envelopes between attached endpoints with
// configurable one-way latency, jitter, and loss, and exposes the fault
// controls the paper's analysis needs: symmetric link cuts, partitions,
// non-transitive connectivity (a can reach c, b can reach c, a cannot reach
// b — the WAN scenario of Section 4), and process crash/restart.
//
// Payloads are round-tripped through the wire codec on every send, so the
// in-memory network has the same value semantics (and byte accounting) as a
// real one.
//
// Each endpoint's delivery queue is a FIFO whose storage grows with its
// backlog, so an idle or lightly loaded endpoint holds almost nothing. Two
// caps bound it, as a congested host's buffers would: an envelope count
// (Config.QueueLen) and an encoded-byte budget. Envelopes past either are
// dropped and counted in DroppedQueue.
//
// Delivery timing runs on an injectable clock.Clock: under the simulator,
// every in-flight message becomes a scheduled event on the virtual
// timeline, drawn from the network's own seeded PRNG.
//
//hafw:simclock
package memnet

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hafw/internal/clock"
	"hafw/internal/ids"
	"hafw/internal/metrics"
	"hafw/internal/ring"
	"hafw/internal/transport"
	"hafw/internal/wire"
)

// queueBytes is the per-endpoint delivery queue byte budget. Chunk traffic
// makes envelope counts a poor congestion proxy — a few megabyte frames
// occupy what thousands of control messages would — so queues are also
// bounded by encoded bytes. Messages past the budget are dropped and
// counted in DroppedQueue.
const queueBytes = 64 << 20

// Config parameterizes a Network.
type Config struct {
	// Latency is the base one-way delivery latency. Zero means immediate
	// (still asynchronous) delivery.
	Latency time.Duration
	// Jitter is the maximum extra random latency added per message.
	Jitter time.Duration
	// Loss is the probability in [0,1) that any given message is dropped.
	Loss float64
	// Seed seeds the network's private random source, making loss and
	// jitter reproducible. Zero selects a fixed default seed.
	Seed int64
	// QueueLen caps the number of envelopes waiting in one endpoint's
	// delivery queue. When a queue holds that many, further messages to
	// that endpoint are dropped (and counted), as a congested host would.
	// The queue's storage grows with its backlog, so a large cap costs
	// nothing until it is used. Zero selects a generous default.
	QueueLen int
	// Clock schedules delayed deliveries. Nil means the wall clock; the
	// simulator injects its virtual clock so latency and jitter elapse in
	// virtual time.
	Clock clock.Clock
}

// Stats are cumulative network-wide counters. They back the load
// experiments (E6): the framework's cost model is expressed in messages and
// bytes crossing the network.
type Stats struct {
	// Sent counts envelopes accepted by Send.
	Sent uint64
	// Delivered counts envelopes accepted into a destination's delivery
	// queue; a backlog still queued when its endpoint closes is counted
	// but never reaches the handler.
	Delivered uint64
	// DroppedLoss counts envelopes dropped by random loss.
	DroppedLoss uint64
	// DroppedLink counts envelopes dropped because the link was cut or an
	// end was crashed (checked both at send and at delivery time, so
	// messages in flight across a new partition are lost too).
	DroppedLink uint64
	// DroppedQueue counts envelopes dropped on a full delivery queue.
	DroppedQueue uint64
	// Bytes counts encoded payload bytes accepted by Send.
	Bytes uint64
}

type linkKey struct{ a, b ids.EndpointID }

// normLink returns the canonical (ordered) key for an undirected link.
func normLink(a, b ids.EndpointID) linkKey {
	if b.Less(a) {
		a, b = b, a
	}
	return linkKey{a, b}
}

// Network is an in-memory network fabric. All methods are safe for
// concurrent use.
type Network struct {
	cfg Config
	clk clock.Clock
	// queueBytes is the per-endpoint byte budget: the queueBytes constant,
	// which tests lower to reach it with a few messages.
	queueBytes int

	mu        sync.Mutex
	rng       *rand.Rand
	endpoints map[ids.EndpointID]*Endpoint
	cut       map[linkKey]bool // severed links (undirected)
	crashed   map[ids.EndpointID]bool
	stats     Stats
	closed    bool
}

// New creates a network with the given configuration.
func New(cfg Config) *Network {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.QueueLen == 0 {
		cfg.QueueLen = 4096
	}
	return &Network{
		cfg:        cfg,
		clk:        clock.OrReal(cfg.Clock),
		queueBytes: queueBytes,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		endpoints:  make(map[ids.EndpointID]*Endpoint),
		cut:        make(map[linkKey]bool),
		crashed:    make(map[ids.EndpointID]bool),
	}
}

// Attach creates a transport endpoint for id. Attaching an id twice is an
// error; a crashed endpoint can be revived with Revive instead.
func (n *Network) Attach(id ids.EndpointID) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, transport.ErrClosed
	}
	if _, ok := n.endpoints[id]; ok {
		return nil, fmt.Errorf("memnet: endpoint %s already attached", id)
	}
	ep := &Endpoint{
		net:    n,
		id:     id,
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	n.endpoints[id] = ep
	go ep.deliverLoop()
	return ep, nil
}

// Detach removes an endpoint entirely (Close on the endpoint calls this).
func (n *Network) detach(id ids.EndpointID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.endpoints, id)
}

// SetConnected cuts (up=false) or restores (up=true) the undirected link
// between a and b. Cutting individual links is how tests build
// non-transitive connectivity.
func (n *Network) SetConnected(a, b ids.EndpointID, up bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if up {
		delete(n.cut, normLink(a, b))
	} else {
		n.cut[normLink(a, b)] = true
	}
}

// Partition splits the listed endpoints into sides: links within a side
// stay up, links between different sides are cut. Endpoints not listed are
// unaffected. Partition composes with previous cuts; use Heal to clear
// everything.
func (n *Network) Partition(sides ...[]ids.EndpointID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := range sides {
		for j := i + 1; j < len(sides); j++ {
			for _, a := range sides[i] {
				for _, b := range sides[j] {
					n.cut[normLink(a, b)] = true
				}
			}
		}
	}
}

// Heal restores every cut link. Crashed endpoints stay crashed.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut = make(map[linkKey]bool)
}

// Crash makes an endpoint unreachable in both directions without detaching
// it: its queued and in-flight messages are discarded on delivery, and its
// sends are dropped. The process object itself is not stopped — crash
// semantics for the protocol state machines are exercised by simply never
// delivering to them again, or by the harness stopping them explicitly.
func (n *Network) Crash(id ids.EndpointID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = true
}

// Revive undoes Crash.
func (n *Network) Revive(id ids.EndpointID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, id)
}

// Crashed reports whether id is currently crashed.
func (n *Network) Crashed(id ids.EndpointID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[id]
}

// Connected reports whether a and b can currently exchange messages.
func (n *Network) Connected(a, b ids.EndpointID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.connectedLocked(a, b)
}

func (n *Network) connectedLocked(a, b ids.EndpointID) bool {
	if n.crashed[a] || n.crashed[b] {
		return false
	}
	return !n.cut[normLink(a, b)]
}

// Stats returns a snapshot of the cumulative counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// ResetStats zeroes the counters (used between experiment phases).
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = Stats{}
}

// Close shuts the whole network down, closing every endpoint.
func (n *Network) Close() {
	n.mu.Lock()
	eps := make([]*Endpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.closed = true
	n.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
}

// send is the network-side half of Endpoint.Send.
func (n *Network) send(env Envelope) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.stats.Sent++
	n.stats.Bytes += uint64(env.size)
	if !n.connectedLocked(env.env.From, env.env.To) {
		n.stats.DroppedLink++
		n.mu.Unlock()
		return
	}
	if n.cfg.Loss > 0 && n.rng.Float64() < n.cfg.Loss {
		n.stats.DroppedLoss++
		n.mu.Unlock()
		return
	}
	delay := n.cfg.Latency
	if n.cfg.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
	}
	n.mu.Unlock()

	if delay <= 0 {
		n.deliver(env)
		return
	}
	n.clk.AfterFunc(delay, func() { n.deliver(env) })
}

// deliver is the arrival-time half: it rechecks connectivity (the link may
// have been cut while the message was in flight) and enqueues at the
// destination, subject to both the envelope-count and byte budgets. A
// queue that was empty wakes its deliver loop.
func (n *Network) deliver(env Envelope) {
	n.mu.Lock()
	if !n.connectedLocked(env.env.From, env.env.To) {
		n.stats.DroppedLink++
		n.mu.Unlock()
		return
	}
	dst, ok := n.endpoints[env.env.To]
	if !ok {
		n.stats.DroppedLink++
		n.mu.Unlock()
		return
	}
	if dst.queue.Len() >= n.cfg.QueueLen || dst.queuedBytes+env.size > n.queueBytes {
		n.stats.DroppedQueue++
		n.mu.Unlock()
		return
	}
	dst.queue.Push(env)
	dst.queuedBytes += env.size
	n.stats.Delivered++
	wake := dst.queue.Len() == 1
	n.mu.Unlock()

	if wake {
		select {
		case dst.notify <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
	dst.countRecv(env.env.Payload.WireName(), env.size)
}

// dequeue pops the front of dst's queue and releases its bytes. ok is
// false when the queue was empty; more reports whether entries remain.
func (n *Network) dequeue(dst *Endpoint) (env Envelope, ok, more bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if dst.queue.Len() == 0 {
		return Envelope{}, false, false
	}
	env = dst.queue.Pop()
	dst.queuedBytes -= env.size
	return env, true, dst.queue.Len() > 0
}

// Envelope pairs a decoded envelope with its encoded size for byte
// accounting. The encoded form itself is not retained: it returns to the
// codec's buffer pool as soon as the clone is decoded, so chunk-sized
// sends do not pin megabytes per queued message.
type Envelope struct {
	env  wire.Envelope
	size int
}

// Endpoint is one attachment to a Network; it implements
// transport.Transport.
type Endpoint struct {
	net *Network
	id  ids.EndpointID

	mu      sync.Mutex
	handler transport.Handler
	closed  bool

	// Per-type counter families, cached so the per-message hot path pays
	// no name formatting or registry lock. All four are set together by
	// SetMetrics and nil when metrics are off.
	sendCount, sendBytes, recvCount, recvBytes *metrics.CounterVec

	// queue holds the envelopes waiting for the handler and queuedBytes
	// their encoded size. Both are guarded by net.mu (not e.mu): the
	// network enqueues at deliver time and the deliver loop dequeues.
	queue       ring.Ring[Envelope]
	queuedBytes int

	// notify carries one pending wake-up for the deliver loop, sent when
	// the queue goes from empty to non-empty.
	notify chan struct{}
	done   chan struct{}
}

var _ transport.Transport = (*Endpoint)(nil)

// Self implements transport.Transport.
func (e *Endpoint) Self() ids.EndpointID { return e.id }

// SetMetrics attaches a registry recording per-message-type send/recv
// counts and bytes for this endpoint (transport_send_total and friends).
func (e *Endpoint) SetMetrics(reg *metrics.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if reg == nil {
		e.sendCount, e.sendBytes, e.recvCount, e.recvBytes = nil, nil, nil, nil
		return
	}
	e.sendCount = reg.CounterVec(`transport_send_total{type=%q}`)
	e.sendBytes = reg.CounterVec(`transport_send_bytes_total{type=%q}`)
	e.recvCount = reg.CounterVec(`transport_recv_total{type=%q}`)
	e.recvBytes = reg.CounterVec(`transport_recv_bytes_total{type=%q}`)
}

// countSend records one outbound envelope.
func (e *Endpoint) countSend(typ string, nbytes int) {
	e.mu.Lock()
	count, bytes := e.sendCount, e.sendBytes
	e.mu.Unlock()
	if count == nil {
		return
	}
	count.With(typ).Inc()
	bytes.With(typ).Add(uint64(nbytes))
}

// countRecv records one inbound envelope (called at delivery time, when
// the encoded size is still known).
func (e *Endpoint) countRecv(typ string, nbytes int) {
	e.mu.Lock()
	count, bytes := e.recvCount, e.recvBytes
	e.mu.Unlock()
	if count == nil {
		return
	}
	count.With(typ).Inc()
	bytes.With(typ).Add(uint64(nbytes))
}

// SetHandler implements transport.Transport.
func (e *Endpoint) SetHandler(h transport.Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

// Send implements transport.Transport. The payload is round-tripped
// through the wire codec, so the receiver can never alias the sender's
// memory and unencodable payloads fail loudly here rather than silently
// differing between memnet and tcpnet. Only the decoded clone plus the
// encoded size travel through the network. Messages whose encoded size
// exceeds wire.MaxFrame fail with an error wrapping wire.ErrFrameTooLarge,
// exactly as tcpnet's frames do, instead of silently working in-memory and
// failing on a real network.
func (e *Endpoint) Send(to ids.EndpointID, m wire.Message) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return transport.ErrClosed
	}
	env, size, err := wire.CloneEnvelope(wire.Envelope{From: e.id, To: to, Payload: m})
	if err != nil {
		return fmt.Errorf("memnet: payload does not survive codec round-trip: %w", err)
	}
	if size > wire.MaxFrame {
		return fmt.Errorf("memnet: encoded %s of %d bytes exceeds max frame %d: %w",
			m.WireName(), size, wire.MaxFrame, wire.ErrFrameTooLarge)
	}
	e.countSend(m.WireName(), size)
	e.net.send(Envelope{env: env, size: size})
	return nil
}

// Close implements transport.Transport.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	// Detach first, so nothing is enqueued once the loop may have stopped.
	e.net.detach(e.id)
	close(e.done)
	return nil
}

// deliverLoop runs until Close, draining the queue into the handler
// sequentially each time it is woken. A backlog left at Close is dropped.
func (e *Endpoint) deliverLoop() {
	for {
		select {
		case <-e.notify:
		case <-e.done:
			return
		}
		for more := true; more; {
			select {
			case <-e.done:
				return
			default:
			}
			var env Envelope
			var ok bool
			env, ok, more = e.net.dequeue(e)
			if !ok {
				break
			}
			e.mu.Lock()
			h := e.handler
			e.mu.Unlock()
			if h != nil {
				h(env.env)
			}
		}
	}
}
