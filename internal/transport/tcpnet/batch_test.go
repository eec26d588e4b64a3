package tcpnet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hafw/internal/ids"
	"hafw/internal/metrics"
	"hafw/internal/wire"
)

// fakeConn stands in for a peer's socket under the writer: it records
// what is written, holds the first Write until gate closes (after
// signalling entered), and fails the Write that would take it past failAt
// bytes when failAt is set.
type fakeConn struct {
	net.Conn // nil: the writer calls only the methods below

	entered chan struct{}
	gate    chan struct{}
	failAt  int

	mu     sync.Mutex
	out    bytes.Buffer
	writes int
}

var errBroken = errors.New("fakeConn: broken pipe")

func newFakeConn(failAt int) *fakeConn {
	return &fakeConn{entered: make(chan struct{}, 1), gate: make(chan struct{}), failAt: failAt}
}

func (c *fakeConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	first := c.writes == 0
	c.writes++
	c.mu.Unlock()
	if first {
		c.entered <- struct{}{}
		<-c.gate
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failAt > 0 && c.out.Len()+len(p) > c.failAt {
		n := c.failAt - c.out.Len()
		c.out.Write(p[:n])
		return n, errBroken
	}
	c.out.Write(p)
	return len(p), nil
}

func (c *fakeConn) SetWriteDeadline(time.Time) error { return nil }

func (c *fakeConn) Close() error { return nil }

// written decodes the whole frames written so far.
func (c *fakeConn) written(t *testing.T) []wire.Message {
	t.Helper()
	c.mu.Lock()
	r := bytes.NewReader(append([]byte(nil), c.out.Bytes()...))
	c.mu.Unlock()
	var out []wire.Message
	for {
		data, err := wire.ReadFrameInto(r, nil, 0)
		if err != nil {
			return out
		}
		env, err := wire.Decode(data)
		if err != nil {
			t.Fatalf("written frame %d: %v", len(out), err)
		}
		out = append(out, env.Payload)
	}
}

// waitWritten waits until c holds n whole frames and returns them.
func (c *fakeConn) waitWritten(t *testing.T, n int) []wire.Message {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := c.written(t); len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d written frames", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// attach makes c tr's cached connection to the peer to, whose listed
// address (port 1) refuses a redial.
func attach(tr *Transport, to ids.EndpointID, c net.Conn) *peerConn {
	tr.AddPeer(to, "127.0.0.1:1")
	tr.mu.Lock()
	defer tr.mu.Unlock()
	pc := tr.newPeerConn(c)
	tr.conns[to] = pc
	return pc
}

func newSender(t *testing.T, cfg Config) *Transport {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr
}

// TestControlJumpsFullBulkWindow checks that a control frame enqueued
// while the bulk window is full goes out in the next batch, ahead of the
// queued bulk and of bulk enqueued after it.
func TestControlJumpsFullBulkWindow(t *testing.T) {
	reg := metrics.NewRegistry()
	a := newSender(t, Config{Self: ids.ProcessEndpoint(51), Metrics: reg})
	to := ids.ProcessEndpoint(52)
	c := newFakeConn(0)
	pc := attach(a, to, c)
	send := func(m wire.Message) {
		if err := a.Send(to, m); err != nil {
			t.Errorf("Send %+v: %v", m, err)
		}
	}
	payload := make([]byte, sendWindow/4)

	send(blob{Seq: 1, Data: payload})
	<-c.entered // the writer holds blob 1 in a write
	for i := 2; i <= 4; i++ {
		send(blob{Seq: i, Data: payload})
	}
	pc.mu.Lock()
	full := pc.bulkBytes+len(payload) > sendWindow
	pc.mu.Unlock()
	if !full {
		t.Fatal("three queued blobs of a quarter window should fill the window")
	}
	send(note{N: 1})
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		send(blob{Seq: 5, Data: payload})
	}()
	for reg.Counter("transport_backpressure_waits_total").Value() == 0 {
		time.Sleep(time.Millisecond) // until blob 5 waits for window space
	}
	close(c.gate)
	<-sent

	var order []string
	for _, m := range c.waitWritten(t, 6) {
		switch m := m.(type) {
		case blob:
			order = append(order, fmt.Sprintf("blob%d", m.Seq))
		case note:
			order = append(order, fmt.Sprintf("note%d", m.N))
		}
	}
	if got, want := strings.Join(order, " "), "blob1 note1 blob2 blob3 blob4 blob5"; got != want {
		t.Fatalf("frames written in order %q, want %q", got, want)
	}
}

// TestWriteErrorReleasesBatchOnce breaks the connection in the middle of
// a batch and checks that every frame Send encoded, in the batch, still
// queued, or sent after the failure, goes back to the pool exactly once,
// and that the transport forgets the connection.
func TestWriteErrorReleasesBatchOnce(t *testing.T) {
	var mu sync.Mutex
	released := map[*wire.Frame]int{}
	// Frames are counted, not pooled, so each Send encodes a fresh one.
	release = func(f *wire.Frame) {
		mu.Lock()
		released[f]++
		mu.Unlock()
	}
	t.Cleanup(func() { release = (*wire.Frame).Release })

	a := newSender(t, Config{Self: ids.ProcessEndpoint(61)})
	to := ids.ProcessEndpoint(62)
	const failAt = 1000 // past the small frames, inside the first blob
	c := newFakeConn(failAt)
	pc := attach(a, to, c)
	sends := 0
	send := func(m wire.Message) {
		if err := a.Send(to, m); err != nil {
			t.Fatalf("Send %+v: %v", m, err)
		}
		sends++
	}
	payload := make([]byte, bulkThreshold)

	send(note{N: 0})
	<-c.entered
	for i := 0; i < 8; i++ {
		send(blob{Seq: i, Data: payload})
		send(note{N: i + 1})
	}
	close(c.gate) // the next batch holds 8 notes and a blob, and fails in the blob

	deadline := time.Now().Add(5 * time.Second)
	for {
		a.mu.Lock()
		_, cached := a.conns[to]
		live := a.accepted[pc]
		a.mu.Unlock()
		if !cached && !live {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connection not forgotten after a write error")
		}
		time.Sleep(time.Millisecond)
	}
	c.mu.Lock()
	n := c.out.Len()
	c.mu.Unlock()
	if n != failAt {
		t.Fatalf("%d bytes written before the failure, want %d", n, failAt)
	}
	if got := c.written(t); len(got) != 9 {
		t.Fatalf("%d whole frames written before the failure, want the 9 notes", len(got))
	}
	send(note{N: 99}) // redials, fails, and drops the frame
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(released) != sends {
		t.Errorf("%d frames released, want all %d sent", len(released), sends)
	}
	for f, k := range released {
		if k != 1 {
			t.Errorf("frame %p released %d times", f, k)
		}
	}
}

// TestSmallPayloadCopiedAtSend checks value semantics below the
// out-of-line threshold: a payload changed after Send arrives as sent.
func TestSmallPayloadCopiedAtSend(t *testing.T) {
	a, b, _, sb := newPair(t)
	data := make([]byte, wire.OutOfLine-1)
	for i := range data {
		data[i] = byte(i)
	}
	sent := append([]byte(nil), data...)
	if err := a.Send(b.Self(), blob{Seq: 1, Data: data}); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xff
	}
	got := sb.waitN(t, 1, 2*time.Second)
	if m := got[0].Payload.(blob); !bytes.Equal(m.Data, sent) {
		t.Fatal("payload changed after Send arrived changed")
	}
}

// TestFramesPerWriteCounted checks the write counters: a burst of 32
// sends queued behind one write goes out in fewer writes than frames.
func TestFramesPerWriteCounted(t *testing.T) {
	if off := newSender(t, Config{Self: ids.ProcessEndpoint(70)}); off.writes != nil || off.writeFrames != nil {
		t.Fatal("write counters registered without a metrics registry")
	}
	reg := metrics.NewRegistry()
	a := newSender(t, Config{Self: ids.ProcessEndpoint(71), Metrics: reg})
	to := ids.ProcessEndpoint(72)
	c := newFakeConn(0)
	attach(a, to, c)
	const burst = 32
	for i := 0; i < burst; i++ {
		if err := a.Send(to, note{N: i}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-c.entered
		}
	}
	close(c.gate)
	c.waitWritten(t, burst)
	frames := reg.Counter("transport_write_frames_total")
	for deadline := time.Now().Add(5 * time.Second); frames.Value() < burst; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("transport_write_frames_total = %d, want %d", frames.Value(), burst)
		}
	}
	writes := reg.Counter("transport_writes_total").Value()
	if writes == 0 || frames.Value()/writes <= 1 {
		t.Fatalf("%d frames in %d writes, want more than one frame per write", frames.Value(), writes)
	}
}
