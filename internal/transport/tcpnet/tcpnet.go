// Package tcpnet implements the transport abstraction over real TCP
// sockets, so that the stack the experiments exercise on memnet also runs
// between OS processes (cmd/hanode, cmd/haclient).
//
// Framing is the wire codec behind a 4-byte length prefix (package wire).
// Each endpoint keeps at most one cached outbound connection per peer,
// dialed lazily and dropped on any error — the transport contract is
// best-effort, so a failed write simply loses that message and the next
// Send redials. Inbound connections are accepted continuously and read
// until error; the envelope carries the source, so no handshake is needed.
//
// Writes go through a per-connection writer goroutine with two queues:
// control (small frames — heartbeats, view changes, acks) and bulk (chunk
// data and other frames of 64 KiB or more). Control frames always
// jump ahead of queued bulk, so a multi-MB chunk burst cannot starve
// failure detection; bulk enqueueing blocks once 8 MiB of bulk is
// queued, pushing backpressure into the producer instead of ballooning
// memory. Each wake-up of the writer sends one batch in one vectored
// write (net.Buffers, writev on a socket): every queued control frame,
// then the first queued bulk frame, so a control frame waits behind at
// most one bulk frame. Frames come from wire.EncodeFrame's pool
// and return to it after the write; a byte slice of wire.OutOfLine bytes
// or more goes out from the sender's message as it lies, never copied, so
// the chunk path neither allocates nor copies per message. Readers decode
// frames out of one reused buffer behind a bufio.Reader.
package tcpnet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"hafw/internal/ids"
	"hafw/internal/metrics"
	"hafw/internal/transport"
	"hafw/internal/wire"
)

const (
	// dialTimeout bounds connection establishment.
	dialTimeout = 2 * time.Second
	// writeTimeout bounds each batch write.
	writeTimeout = 2 * time.Second
	// sendWindow bounds the bytes of bulk frames queued per connection
	// before Send blocks (backpressure).
	sendWindow = 8 << 20
	// bulkThreshold classifies frames: encoded sizes at or above it queue
	// behind control traffic and count against sendWindow.
	bulkThreshold = 64 << 10
)

// Config parameterizes a TCP transport endpoint.
type Config struct {
	// Self is the identity this endpoint speaks for.
	Self ids.EndpointID
	// ListenAddr is the address to accept peer connections on, for example
	// "127.0.0.1:7001". Empty means send-only (typical for clients behind
	// NAT in tests; they still receive on connections they opened — not
	// supported here, so server processes must listen).
	ListenAddr string
	// Peers maps endpoint identities to dialable addresses. More peers can
	// be added later with AddPeer.
	Peers map[ids.EndpointID]string
	// Metrics, when non-nil, records per-message-type send/recv counts and
	// bytes (transport_send_total and friends), and the vectored writes
	// and the frames they carried (transport_writes_total,
	// transport_write_frames_total).
	Metrics *metrics.Registry
}

// Transport is a TCP-backed transport.Transport.
type Transport struct {
	cfg      Config
	listener net.Listener

	mu      sync.Mutex
	handler transport.Handler
	peers   map[ids.EndpointID]string
	conns   map[ids.EndpointID]*peerConn
	// accepted holds every live connection (inbound and outbound) keyed
	// by its wrapper, for teardown.
	accepted map[*peerConn]bool
	// replyConns maps a remote endpoint to the inbound connection it last
	// spoke on, so unknown peers (clients behind NAT) can be answered over
	// the connection they opened.
	replyConns map[ids.EndpointID]*peerConn
	closed     bool

	// Per-type counter families, cached so the per-message hot path pays
	// no name formatting or registry lock. Nil when metrics are off.
	sendCount, sendBytes, recvCount, recvBytes  *metrics.CounterVec
	oversize, backpressure, writes, writeFrames *metrics.Counter

	wg sync.WaitGroup
}

var _ transport.Transport = (*Transport)(nil)

// New creates the endpoint and, if ListenAddr is set, starts accepting.
func New(cfg Config) (*Transport, error) {
	if cfg.Self.IsZero() {
		return nil, errors.New("tcpnet: Config.Self is required")
	}
	t := &Transport{
		cfg:        cfg,
		peers:      make(map[ids.EndpointID]string, len(cfg.Peers)),
		conns:      make(map[ids.EndpointID]*peerConn),
		accepted:   make(map[*peerConn]bool),
		replyConns: make(map[ids.EndpointID]*peerConn),
	}
	if cfg.Metrics != nil {
		t.sendCount = cfg.Metrics.CounterVec(`transport_send_total{type=%q}`)
		t.sendBytes = cfg.Metrics.CounterVec(`transport_send_bytes_total{type=%q}`)
		t.recvCount = cfg.Metrics.CounterVec(`transport_recv_total{type=%q}`)
		t.recvBytes = cfg.Metrics.CounterVec(`transport_recv_bytes_total{type=%q}`)
		t.oversize = cfg.Metrics.Counter("transport_oversize_frames_total")
		t.backpressure = cfg.Metrics.Counter("transport_backpressure_waits_total")
		t.writes = cfg.Metrics.Counter("transport_writes_total")
		t.writeFrames = cfg.Metrics.Counter("transport_write_frames_total")
	}
	for id, addr := range cfg.Peers {
		t.peers[id] = addr
	}
	if cfg.ListenAddr != "" {
		ln, err := net.Listen("tcp", cfg.ListenAddr)
		if err != nil {
			return nil, fmt.Errorf("tcpnet: listen %s: %w", cfg.ListenAddr, err)
		}
		t.listener = ln
		t.wg.Add(1)
		go t.acceptLoop()
	}
	return t, nil
}

// Addr returns the actual listen address (useful when ListenAddr used port
// 0), or "" if not listening.
func (t *Transport) Addr() string {
	if t.listener == nil {
		return ""
	}
	return t.listener.Addr().String()
}

// AddPeer registers or updates the dialable address for a peer. Any cached
// connection to the peer is dropped so the next Send uses the new address.
func (t *Transport) AddPeer(id ids.EndpointID, addr string) {
	t.mu.Lock()
	pc := t.conns[id]
	t.peers[id] = addr
	delete(t.conns, id)
	t.mu.Unlock()
	if pc != nil {
		pc.close()
	}
}

// Self implements transport.Transport.
func (t *Transport) Self() ids.EndpointID { return t.cfg.Self }

// SetHandler implements transport.Transport.
func (t *Transport) SetHandler(h transport.Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// Send implements transport.Transport. Errors for unknown peers are
// reported; transmission failures to known peers are best-effort and only
// drop the cached connection. Bulk frames may block here until the
// connection's send window has room. Byte slices of wire.OutOfLine bytes
// or more in m are written from where m holds them, after Send returns:
// the caller must not modify them.
func (t *Transport) Send(to ids.EndpointID, m wire.Message) error {
	f, err := wire.EncodeFrame(wire.Envelope{From: t.cfg.Self, To: to, Payload: m}, wire.MaxFrame)
	if err != nil {
		return fmt.Errorf("tcpnet: %w", err)
	}
	t.count("send", m.WireName(), f.Len()-wire.FrameHeader)

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		release(f)
		return transport.ErrClosed
	}
	addr, known := t.peers[to]
	pc := t.conns[to]
	reply := t.replyConns[to]
	t.mu.Unlock()

	if !known {
		if reply == nil {
			release(f)
			return fmt.Errorf("tcpnet: no address for peer %s", to)
		}
		// Answer over the connection the peer opened to us.
		reply.enqueue(f, t.isBulk(f))
		return nil
	}
	if pc == nil {
		c, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err != nil {
			release(f)
			return nil // best-effort: peer unreachable is not a Send error
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = c.Close()
			release(f)
			return transport.ErrClosed
		}
		if existing, ok := t.conns[to]; ok {
			// Lost a dial race; keep the existing connection.
			_ = c.Close()
			pc = existing
		} else {
			pc = t.newPeerConn(c)
			t.conns[to] = pc
			// Outbound connections are bidirectional: the peer may answer
			// over them (it has no address book entry for us).
			t.wg.Add(1)
			go t.readLoop(pc)
		}
		t.mu.Unlock()
	}

	pc.enqueue(f, t.isBulk(f))
	return nil
}

// release returns a frame to the wire pool. Every frame Send encodes is
// released exactly once: by Send when it is not queued, by the writer
// after its batch is written, or by the drain of a dead connection.
var release = (*wire.Frame).Release

// isBulk classifies an encoded frame by its payload size.
func (t *Transport) isBulk(frame *wire.Frame) bool {
	return frame.Len()-wire.FrameHeader >= bulkThreshold
}

// count records one envelope in the per-message-type transport counters.
func (t *Transport) count(dir, typ string, nbytes int) {
	count, bytes := t.sendCount, t.sendBytes
	if dir == "recv" {
		count, bytes = t.recvCount, t.recvBytes
	}
	if count == nil {
		return
	}
	count.With(typ).Inc()
	bytes.With(typ).Add(uint64(nbytes))
}

// forget removes a dead connection from every map it may be registered in.
func (t *Transport) forget(pc *peerConn) {
	t.mu.Lock()
	delete(t.accepted, pc)
	for ep, c := range t.conns {
		if c == pc {
			delete(t.conns, ep)
		}
	}
	for ep, c := range t.replyConns {
		if c == pc {
			delete(t.replyConns, ep)
		}
	}
	t.mu.Unlock()
}

// Close implements transport.Transport.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	pcs := make([]*peerConn, 0, len(t.accepted))
	for pc := range t.accepted {
		pcs = append(pcs, pc)
	}
	t.conns = make(map[ids.EndpointID]*peerConn)
	t.accepted = make(map[*peerConn]bool)
	t.replyConns = make(map[ids.EndpointID]*peerConn)
	t.mu.Unlock()

	if t.listener != nil {
		_ = t.listener.Close()
	}
	for _, pc := range pcs {
		pc.close()
	}
	t.wg.Wait()
	return nil
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		pc := t.newPeerConn(conn)
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(pc)
	}
}

// newPeerConn wraps a connection and starts its writer. Caller holds t.mu.
func (t *Transport) newPeerConn(conn net.Conn) *peerConn {
	pc := &peerConn{t: t, conn: conn}
	pc.cond = sync.NewCond(&pc.mu)
	t.accepted[pc] = true
	t.wg.Add(1)
	go pc.writer()
	return pc
}

// maxReadBuffer bounds the frame buffer a reader keeps between frames;
// a rare larger frame is read into a buffer of its own.
const maxReadBuffer = 1 << 20

func (t *Transport) readLoop(pc *peerConn) {
	defer t.wg.Done()
	defer func() {
		t.forget(pc)
		pc.close()
	}()
	r := bufio.NewReaderSize(pc.conn, 32<<10)
	var buf []byte
	for {
		t.mu.Lock()
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return
		}
		data, err := wire.ReadFrameInto(r, buf, wire.MaxFrame)
		if err != nil {
			if errors.Is(err, wire.ErrFrameTooLarge) && t.oversize != nil {
				// Corrupt or hostile length prefix: the stream cannot be
				// resynchronized, so the deferred close drops the
				// connection rather than attempting the allocation.
				t.oversize.Inc()
			}
			return
		}
		if cap(data) <= maxReadBuffer {
			buf = data
		}
		env, err := wire.Decode(data)
		if err != nil {
			continue // corrupt frame: drop, keep the connection
		}
		if env.To != t.cfg.Self {
			continue // misrouted; a real host would drop it too
		}
		t.count("recv", env.Payload.WireName(), len(data))
		t.mu.Lock()
		t.replyConns[env.From] = pc
		h := t.handler
		t.mu.Unlock()
		if h != nil {
			h(env)
		}
	}
}

// peerConn owns one TCP connection: a control queue, a bulk queue bounded
// by the send window, and the writer goroutine draining them in batches.
type peerConn struct {
	t    *Transport
	conn net.Conn

	mu   sync.Mutex
	cond *sync.Cond
	// control and bulk queue encoded frames awaiting the writer; entries
	// are pooled frames owned by the queue until written.
	control, bulk []*wire.Frame
	// bulkBytes is the queued bulk payload, bounded by sendWindow.
	bulkBytes int
	closed    bool
}

// enqueue hands an encoded frame to the writer, blocking while the bulk
// window is full. The frame's ownership passes to the queue.
func (pc *peerConn) enqueue(f *wire.Frame, isBulk bool) {
	pc.mu.Lock()
	if isBulk {
		waited := false
		for !pc.closed && pc.bulkBytes+f.Len() > sendWindow && pc.bulkBytes > 0 {
			if !waited {
				waited = true
				if pc.t.backpressure != nil {
					pc.t.backpressure.Inc()
				}
			}
			pc.cond.Wait()
		}
	}
	if pc.closed {
		pc.mu.Unlock()
		release(f)
		return // best-effort: frame lost with the connection
	}
	if isBulk {
		pc.bulk = append(pc.bulk, f)
		pc.bulkBytes += f.Len()
	} else {
		pc.control = append(pc.control, f)
	}
	pc.cond.Broadcast()
	pc.mu.Unlock()
}

// writer sends the queues batch by batch until the connection closes.
func (pc *peerConn) writer() {
	defer pc.t.wg.Done()
	var batch []*wire.Frame
	// vecs keeps its storage between batches; pending is the part WriteTo
	// has yet to write, which it advances.
	var vecs, pending net.Buffers
	for {
		pc.mu.Lock()
		for !pc.closed && len(pc.control) == 0 && len(pc.bulk) == 0 {
			pc.cond.Wait()
		}
		if pc.closed {
			pc.drainLocked()
			pc.mu.Unlock()
			return
		}
		batch = pc.takeLocked(batch)
		pc.cond.Broadcast() // window space freed; wake blocked producers
		pc.mu.Unlock()

		vecs = vecs[:0]
		for _, f := range batch {
			vecs = f.AppendTo(vecs)
		}
		pending = vecs
		_ = pc.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		_, err := pending.WriteTo(pc.conn)
		if pc.t.writes != nil {
			pc.t.writes.Inc()
			pc.t.writeFrames.Add(uint64(len(batch)))
		}
		clear(vecs) // hold no references to the frames' bytes
		for i, f := range batch {
			release(f)
			batch[i] = nil
		}
		batch = batch[:0]
		if err != nil {
			pc.t.forget(pc)
			pc.close()
			pc.mu.Lock()
			pc.drainLocked()
			pc.mu.Unlock()
			return
		}
	}
}

// takeLocked moves the next batch off the queues onto batch: every queued
// control frame, then the first bulk frame, if any. One bulk frame per
// batch keeps each write short: on loopback, batches of three 64 KiB
// chunks raised a chunk stream's p99 latency by a fifth or more. Caller
// holds pc.mu.
func (pc *peerConn) takeLocked(batch []*wire.Frame) []*wire.Frame {
	batch = append(batch, pc.control...)
	clear(pc.control)
	pc.control = pc.control[:0]
	if len(pc.bulk) > 0 {
		f := pc.bulk[0]
		batch = append(batch, f)
		n := copy(pc.bulk, pc.bulk[1:])
		pc.bulk[n] = nil
		pc.bulk = pc.bulk[:n]
		pc.bulkBytes -= f.Len()
	}
	return batch
}

// drainLocked returns every queued frame to the pool. Caller holds pc.mu.
func (pc *peerConn) drainLocked() {
	for _, f := range pc.control {
		release(f)
	}
	for _, f := range pc.bulk {
		release(f)
	}
	pc.control, pc.bulk, pc.bulkBytes = nil, nil, 0
}

// close marks the connection dead, wakes any blocked producers and the
// writer, and closes the socket.
func (pc *peerConn) close() {
	pc.mu.Lock()
	if pc.closed {
		pc.mu.Unlock()
		return
	}
	pc.closed = true
	pc.cond.Broadcast()
	pc.mu.Unlock()
	_ = pc.conn.Close()
}
