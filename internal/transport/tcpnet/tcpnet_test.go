package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"hafw/internal/ids"
	"hafw/internal/metrics"
	"hafw/internal/transport"
	"hafw/internal/wire"
)

type note struct {
	N    int
	Text string
}

func (note) WireName() string { return "tcpnet.note" }

func init() { wire.Register(note{}) }

type sink struct {
	mu  sync.Mutex
	got []wire.Envelope
}

func (s *sink) handler(env wire.Envelope) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.got = append(s.got, env)
}

func (s *sink) waitN(t *testing.T, n int, timeout time.Duration) []wire.Envelope {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		if len(s.got) >= n {
			out := make([]wire.Envelope, len(s.got))
			copy(out, s.got)
			s.mu.Unlock()
			return out
		}
		s.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d envelopes", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

func newPair(t *testing.T) (*Transport, *Transport, *sink, *sink) {
	t.Helper()
	a, err := New(Config{Self: ids.ProcessEndpoint(1), ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("New a: %v", err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b, err := New(Config{Self: ids.ProcessEndpoint(2), ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("New b: %v", err)
	}
	t.Cleanup(func() { _ = b.Close() })
	a.AddPeer(b.Self(), b.Addr())
	b.AddPeer(a.Self(), a.Addr())
	sa, sb := &sink{}, &sink{}
	a.SetHandler(sa.handler)
	b.SetHandler(sb.handler)
	return a, b, sa, sb
}

func TestRoundTrip(t *testing.T) {
	a, b, sa, sb := newPair(t)

	if err := a.Send(b.Self(), note{N: 1, Text: "hi"}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got := sb.waitN(t, 1, 2*time.Second)
	if got[0].From != a.Self() {
		t.Errorf("From = %v, want %v", got[0].From, a.Self())
	}
	if m := got[0].Payload.(note); m.N != 1 || m.Text != "hi" {
		t.Errorf("payload = %+v", m)
	}

	if err := b.Send(a.Self(), note{N: 2}); err != nil {
		t.Fatalf("Send back: %v", err)
	}
	sa.waitN(t, 1, 2*time.Second)
}

func TestManyMessagesReuseConnection(t *testing.T) {
	a, b, _, sb := newPair(t)
	const total = 200
	for i := 0; i < total; i++ {
		if err := a.Send(b.Self(), note{N: i}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	got := sb.waitN(t, total, 5*time.Second)
	// TCP preserves per-connection order, and a single cached connection is
	// used, so the N values must arrive in order.
	for i, env := range got {
		if env.Payload.(note).N != i {
			t.Fatalf("message %d has N=%d; connection not reused in order", i, env.Payload.(note).N)
		}
	}
}

func TestUnknownPeer(t *testing.T) {
	a, _, _, _ := newPair(t)
	if err := a.Send(ids.ProcessEndpoint(99), note{N: 1}); err == nil {
		t.Fatal("Send to unknown peer should error")
	}
}

func TestUnreachablePeerIsBestEffort(t *testing.T) {
	a, _, _, _ := newPair(t)
	a.AddPeer(ids.ProcessEndpoint(50), "127.0.0.1:1") // nothing listens there
	if err := a.Send(ids.ProcessEndpoint(50), note{N: 1}); err != nil {
		t.Fatalf("unreachable peer should not be a Send error, got %v", err)
	}
}

func TestSendAfterClose(t *testing.T) {
	a, b, _, _ := newPair(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Self(), note{N: 1}); err != transport.ErrClosed {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestReconnectAfterPeerRestart(t *testing.T) {
	a, b, _, sb := newPair(t)
	if err := a.Send(b.Self(), note{N: 1}); err != nil {
		t.Fatal(err)
	}
	sb.waitN(t, 1, 2*time.Second)

	// Restart b on a new port.
	bAddrOld := b.Addr()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := New(Config{Self: ids.ProcessEndpoint(2), ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b2.Close() })
	sb2 := &sink{}
	b2.SetHandler(sb2.handler)
	if b2.Addr() == bAddrOld {
		t.Log("reused the same port; test still valid")
	}
	a.AddPeer(b2.Self(), b2.Addr())

	// The first Send after restart may race the dead cached connection;
	// retry a few times as a real protocol layer would.
	ok := false
	for i := 0; i < 20 && !ok; i++ {
		if err := a.Send(b2.Self(), note{N: 2}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
		ok = sb2.count() > 0
	}
	if !ok {
		t.Fatal("peer never received messages after restart")
	}
}

func TestMisroutedFrameDropped(t *testing.T) {
	// a sends to an address that is actually b, but labels it for p9;
	// b must drop it.
	a, b, _, sb := newPair(t)
	a.AddPeer(ids.ProcessEndpoint(9), b.Addr())
	if err := a.Send(ids.ProcessEndpoint(9), note{N: 1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if sb.count() != 0 {
		t.Fatal("misrouted frame was delivered")
	}
}

// TestCorruptFrameDroppedConnectionKept checks that a frame whose body
// does not decode is dropped alone: a valid frame behind it on the same
// connection, in the same segment, still arrives.
func TestCorruptFrameDroppedConnectionKept(t *testing.T) {
	_, b, _, sb := newPair(t)
	f, err := wire.EncodeFrame(wire.Envelope{From: ids.ClientEndpoint(77), To: b.Self(), Payload: note{N: 5}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	good := bytes.Join(f.AppendTo(nil), nil)
	f.Release()
	body := good[wire.FrameHeader:]
	// Two frames whose length prefixes are right but whose bodies do not
	// decode, then the good frame.
	var stream []byte
	for _, bad := range [][]byte{[]byte("not a wire frame"), body[:len(body)-1]} {
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(bad)))
		stream = append(stream, bad...)
	}
	stream = append(stream, good...)
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	got := sb.waitN(t, 1, 5*time.Second)
	if n, ok := got[0].Payload.(note); !ok || n.N != 5 || got[0].From != ids.ClientEndpoint(77) {
		t.Fatalf("delivered %+v, want the valid note", got[0])
	}
	time.Sleep(20 * time.Millisecond)
	if sb.count() != 1 {
		t.Fatalf("%d envelopes delivered, want only the valid one", sb.count())
	}
}

func TestRequiresSelf(t *testing.T) {
	if _, err := New(Config{ListenAddr: "127.0.0.1:0"}); err == nil {
		t.Fatal("New without Self should fail")
	}
}

func TestConcurrentSenders(t *testing.T) {
	a, b, _, sb := newPair(t)
	const workers, per = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := a.Send(b.Self(), note{N: w*per + i}); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	sb.waitN(t, workers*per, 5*time.Second)
}

type blob struct {
	Seq  int
	Data []byte
}

func (blob) WireName() string { return "tcpnet.blob" }

func init() { wire.Register(blob{}) }

// TestLargeFrameRoundTrip pushes 1 MB frames through the bulk path (run
// under -race in CI): payloads must arrive intact and in order alongside
// interleaved control traffic.
func TestLargeFrameRoundTrip(t *testing.T) {
	a, b, _, sb := newPair(t)
	const frames = 8
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for i := 0; i < frames; i++ {
		if err := a.Send(b.Self(), blob{Seq: i, Data: payload}); err != nil {
			t.Fatalf("Send blob %d: %v", i, err)
		}
		if err := a.Send(b.Self(), note{N: i}); err != nil {
			t.Fatalf("Send note %d: %v", i, err)
		}
	}
	got := sb.waitN(t, 2*frames, 20*time.Second)
	blobs := 0
	for _, env := range got {
		m, ok := env.Payload.(blob)
		if !ok {
			continue
		}
		if m.Seq != blobs {
			t.Fatalf("blob %d arrived out of order (Seq=%d)", blobs, m.Seq)
		}
		if len(m.Data) != len(payload) {
			t.Fatalf("blob %d truncated: %d bytes", m.Seq, len(m.Data))
		}
		for j := 0; j < len(payload); j += 4096 {
			if m.Data[j] != payload[j] {
				t.Fatalf("blob %d corrupted at offset %d", m.Seq, j)
			}
		}
		blobs++
	}
	if blobs != frames {
		t.Fatalf("received %d blobs, want %d", blobs, frames)
	}
}

// TestOversizeFrameRejected covers both directions of the max-frame
// limit: Send refuses to encode past the limit with the typed error, and
// a receiver drops the connection on an oversized length prefix.
func TestOversizeFrameRejected(t *testing.T) {
	reg := metrics.NewRegistry()
	a, err := New(Config{Self: ids.ProcessEndpoint(31), ListenAddr: "127.0.0.1:0", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b, err := New(Config{Self: ids.ProcessEndpoint(32), ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	a.AddPeer(b.Self(), b.Addr())
	sb := &sink{}
	b.SetHandler(sb.handler)

	if err := a.Send(b.Self(), blob{Data: make([]byte, wire.MaxFrame)}); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("oversized Send err = %v, want ErrFrameTooLarge", err)
	}

	// A raw connection announcing a giant frame must be dropped without
	// the receiver attempting the allocation.
	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection with oversized prefix should be closed")
	}
	if v := reg.Counter("transport_oversize_frames_total").Value(); v != 1 {
		t.Errorf("oversize counter = %d, want 1", v)
	}
}

// TestBulkBackpressureBounded checks the send window: with more than three
// windows of bulk frames sent at once and a receiver that drains slowly,
// queued bulk bytes stay bounded and every frame still arrives.
func TestBulkBackpressureBounded(t *testing.T) {
	reg := metrics.NewRegistry()
	a, err := New(Config{Self: ids.ProcessEndpoint(41), ListenAddr: "127.0.0.1:0", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b, err := New(Config{Self: ids.ProcessEndpoint(42), ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	a.AddPeer(b.Self(), b.Addr())
	sb := &sink{}
	slow := func(env wire.Envelope) {
		time.Sleep(time.Millisecond)
		sb.handler(env)
	}
	b.SetHandler(slow)

	const frames = 30
	payload := make([]byte, 1<<20)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < frames; i++ {
			if err := a.Send(b.Self(), blob{Seq: i, Data: payload}); err != nil {
				t.Errorf("Send %d: %v", i, err)
				return
			}
			// The window fits eight frames; queued bulk must never exceed it.
			a.mu.Lock()
			pc := a.conns[b.Self()]
			a.mu.Unlock()
			if pc != nil {
				pc.mu.Lock()
				queued := pc.bulkBytes
				pc.mu.Unlock()
				if queued > sendWindow {
					t.Errorf("bulk queue %d bytes exceeds window", queued)
					return
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("senders wedged in backpressure")
	}
	sb.waitN(t, frames, 30*time.Second)
	if reg.Counter("transport_backpressure_waits_total").Value() == 0 {
		t.Error("expected at least one backpressure wait")
	}
}

func TestReplyOverInboundConnection(t *testing.T) {
	// b knows a's address; a does NOT know b's. After b speaks first, a
	// can answer over the inbound connection — how servers answer clients.
	a, err := New(Config{Self: ids.ProcessEndpoint(10), ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b, err := New(Config{Self: ids.ClientEndpoint(20), ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	b.AddPeer(a.Self(), a.Addr())

	sa, sb := &sink{}, &sink{}
	a.SetHandler(sa.handler)
	b.SetHandler(sb.handler)

	// Before b speaks, a cannot reach it.
	if err := a.Send(b.Self(), note{N: 0}); err == nil {
		t.Fatal("expected error for unknown peer before first contact")
	}
	if err := b.Send(a.Self(), note{N: 1}); err != nil {
		t.Fatal(err)
	}
	sa.waitN(t, 1, 2*time.Second)
	if err := a.Send(b.Self(), note{N: 2}); err != nil {
		t.Fatalf("reply over inbound connection failed: %v", err)
	}
	got := sb.waitN(t, 1, 2*time.Second)
	if got[0].Payload.(note).N != 2 {
		t.Fatalf("reply payload = %+v", got[0])
	}
}
