package memnet

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hafw/internal/ids"
	"hafw/internal/transport"
	"hafw/internal/wire"
)

type ping struct {
	N    int
	Data []byte
}

func (ping) WireName() string { return "memnet.ping" }

func init() { wire.Register(ping{}) }

// collector accumulates delivered envelopes for assertions.
type collector struct {
	mu   sync.Mutex
	got  []wire.Envelope
	cond *sync.Cond
}

func newCollector() *collector {
	c := &collector{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *collector) handler(env wire.Envelope) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got = append(c.got, env)
	c.cond.Broadcast()
}

func (c *collector) waitN(t *testing.T, n int, timeout time.Duration) []wire.Envelope {
	t.Helper()
	deadline := time.Now().Add(timeout)
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.got) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d envelopes, have %d", n, len(c.got))
		}
		c.mu.Unlock()
		time.Sleep(time.Millisecond)
		c.mu.Lock()
	}
	out := make([]wire.Envelope, len(c.got))
	copy(out, c.got)
	return out
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func pair(t *testing.T, n *Network) (*Endpoint, *Endpoint, *collector, *collector) {
	t.Helper()
	a, err := n.Attach(ids.ProcessEndpoint(1))
	if err != nil {
		t.Fatalf("attach a: %v", err)
	}
	b, err := n.Attach(ids.ProcessEndpoint(2))
	if err != nil {
		t.Fatalf("attach b: %v", err)
	}
	ca, cb := newCollector(), newCollector()
	a.SetHandler(ca.handler)
	b.SetHandler(cb.handler)
	return a, b, ca, cb
}

func TestBasicDelivery(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, _, _, cb := pair(t, n)

	if err := a.Send(ids.ProcessEndpoint(2), ping{N: 42}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got := cb.waitN(t, 1, time.Second)
	if got[0].From != ids.ProcessEndpoint(1) {
		t.Errorf("From = %v, want p1", got[0].From)
	}
	p, ok := got[0].Payload.(ping)
	if !ok || p.N != 42 {
		t.Errorf("payload = %#v, want ping{42}", got[0].Payload)
	}
}

func TestPayloadIsolation(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, _, _, cb := pair(t, n)

	msg := ping{N: 1, Data: []byte{1, 2, 3}}
	if err := a.Send(ids.ProcessEndpoint(2), msg); err != nil {
		t.Fatalf("Send: %v", err)
	}
	msg.Data[0] = 99 // mutate after send; receiver must not observe this
	got := cb.waitN(t, 1, time.Second)
	if got[0].Payload.(ping).Data[0] != 1 {
		t.Error("receiver observed sender-side mutation; payloads must be copied")
	}
}

func TestLinkCut(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, b, ca, cb := pair(t, n)

	n.SetConnected(a.Self(), b.Self(), false)
	if err := a.Send(b.Self(), ping{N: 1}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := b.Send(a.Self(), ping{N: 2}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	if cb.count() != 0 || ca.count() != 0 {
		t.Fatal("messages crossed a cut link")
	}
	st := n.Stats()
	if st.DroppedLink != 2 {
		t.Errorf("DroppedLink = %d, want 2", st.DroppedLink)
	}

	n.SetConnected(a.Self(), b.Self(), true)
	if err := a.Send(b.Self(), ping{N: 3}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	cb.waitN(t, 1, time.Second)
}

func TestInFlightDropOnCut(t *testing.T) {
	n := New(Config{Latency: 50 * time.Millisecond})
	defer n.Close()
	a, b, _, cb := pair(t, n)

	if err := a.Send(b.Self(), ping{N: 1}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	// Cut while the message is in flight: it must be lost.
	n.SetConnected(a.Self(), b.Self(), false)
	time.Sleep(120 * time.Millisecond)
	if cb.count() != 0 {
		t.Fatal("in-flight message survived a link cut")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	var eps []*Endpoint
	var cols []*collector
	for i := 1; i <= 4; i++ {
		ep, err := n.Attach(ids.ProcessEndpoint(ids.ProcessID(i)))
		if err != nil {
			t.Fatalf("attach: %v", err)
		}
		c := newCollector()
		ep.SetHandler(c.handler)
		eps = append(eps, ep)
		cols = append(cols, c)
	}
	side1 := []ids.EndpointID{eps[0].Self(), eps[1].Self()}
	side2 := []ids.EndpointID{eps[2].Self(), eps[3].Self()}
	n.Partition(side1, side2)

	// Within side: delivered. Across: dropped.
	if err := eps[0].Send(eps[1].Self(), ping{N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := eps[0].Send(eps[2].Self(), ping{N: 2}); err != nil {
		t.Fatal(err)
	}
	cols[1].waitN(t, 1, time.Second)
	time.Sleep(20 * time.Millisecond)
	if cols[2].count() != 0 {
		t.Fatal("message crossed partition")
	}

	n.Heal()
	if err := eps[0].Send(eps[2].Self(), ping{N: 3}); err != nil {
		t.Fatal(err)
	}
	cols[2].waitN(t, 1, time.Second)
}

func TestNonTransitiveConnectivity(t *testing.T) {
	// a—c and b—c up, a—b cut: the Section 4 WAN scenario.
	n := New(Config{})
	defer n.Close()
	a, err := n.Attach(ids.ProcessEndpoint(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach(ids.ProcessEndpoint(2))
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.Attach(ids.ProcessEndpoint(3))
	if err != nil {
		t.Fatal(err)
	}
	ca, cb, cc := newCollector(), newCollector(), newCollector()
	a.SetHandler(ca.handler)
	b.SetHandler(cb.handler)
	c.SetHandler(cc.handler)

	n.SetConnected(a.Self(), b.Self(), false)

	if err := a.Send(c.Self(), ping{N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(c.Self(), ping{N: 2}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Self(), ping{N: 3}); err != nil {
		t.Fatal(err)
	}
	cc.waitN(t, 2, time.Second)
	time.Sleep(20 * time.Millisecond)
	if cb.count() != 0 {
		t.Fatal("a reached b despite the cut")
	}
	if !n.Connected(a.Self(), c.Self()) || n.Connected(a.Self(), b.Self()) {
		t.Error("Connected() disagrees with configuration")
	}
}

func TestCrashAndRevive(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, b, _, cb := pair(t, n)

	n.Crash(b.Self())
	if !n.Crashed(b.Self()) {
		t.Fatal("Crashed() should be true")
	}
	if err := a.Send(b.Self(), ping{N: 1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if cb.count() != 0 {
		t.Fatal("crashed endpoint received a message")
	}

	n.Revive(b.Self())
	if err := a.Send(b.Self(), ping{N: 2}); err != nil {
		t.Fatal(err)
	}
	cb.waitN(t, 1, time.Second)
}

func TestLoss(t *testing.T) {
	n := New(Config{Loss: 0.5, Seed: 7})
	defer n.Close()
	a, b, _, cb := pair(t, n)

	const total = 400
	for i := 0; i < total; i++ {
		if err := a.Send(b.Self(), ping{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	got := cb.count()
	if got == 0 || got == total {
		t.Fatalf("with 50%% loss expected partial delivery, got %d/%d", got, total)
	}
	st := n.Stats()
	if st.DroppedLoss+uint64(got) != total {
		t.Errorf("loss accounting: dropped %d + delivered %d != %d", st.DroppedLoss, got, total)
	}
}

func TestLossDeterministicWithSeed(t *testing.T) {
	run := func() uint64 {
		n := New(Config{Loss: 0.3, Seed: 99})
		defer n.Close()
		a, b, _, _ := pair(t, n)
		for i := 0; i < 200; i++ {
			if err := a.Send(b.Self(), ping{N: i}); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(30 * time.Millisecond)
		return n.Stats().DroppedLoss
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different loss: %d vs %d", a, b)
	}
}

func TestLatencyOrdering(t *testing.T) {
	n := New(Config{Latency: 10 * time.Millisecond})
	defer n.Close()
	a, b, _, cb := pair(t, n)

	start := time.Now()
	if err := a.Send(b.Self(), ping{N: 1}); err != nil {
		t.Fatal(err)
	}
	cb.waitN(t, 1, time.Second)
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("delivered after %v, want >= 10ms", elapsed)
	}
}

func TestDuplicateAttach(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	if _, err := n.Attach(ids.ProcessEndpoint(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(ids.ProcessEndpoint(1)); err == nil {
		t.Fatal("second attach of same id should fail")
	}
}

func TestSendAfterClose(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, b, _, _ := pair(t, n)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Self(), ping{N: 1}); err != transport.ErrClosed {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
	// Closing twice is fine.
	if err := a.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestDetachedDestination(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, b, _, _ := pair(t, n)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Self(), ping{N: 1}); err != nil {
		t.Fatalf("Send to detached destination should be best-effort, got %v", err)
	}
	time.Sleep(10 * time.Millisecond)
	if n.Stats().Delivered != 0 {
		t.Error("nothing should be delivered to a detached endpoint")
	}
}

func TestStatsBytes(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, b, _, cb := pair(t, n)
	if err := a.Send(b.Self(), ping{N: 1, Data: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	cb.waitN(t, 1, time.Second)
	if st := n.Stats(); st.Bytes < 100 {
		t.Errorf("Bytes = %d, want >= 100", st.Bytes)
	}
}

func TestConcurrentSends(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, b, _, cb := pair(t, n)

	const senders, per = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := a.Send(b.Self(), ping{N: s*per + i}); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	cb.waitN(t, senders*per, 5*time.Second)
}

// TestLargeChunkDelivery sends a chunk-sized (multi-MB) payload end to end
// and verifies the receiver sees every byte.
func TestLargeChunkDelivery(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, b, _, cb := pair(t, n)

	data := make([]byte, 2<<20)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := a.Send(b.Self(), ping{N: 7, Data: data}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got := cb.waitN(t, 1, 5*time.Second)
	p := got[0].Payload.(ping)
	if len(p.Data) != len(data) {
		t.Fatalf("received %d bytes, want %d", len(p.Data), len(data))
	}
	for i := 0; i < len(data); i += 4096 {
		if p.Data[i] != data[i] {
			t.Fatalf("byte %d corrupted: %d != %d", i, p.Data[i], data[i])
		}
	}
	if st := n.Stats(); st.Bytes < 2<<20 {
		t.Errorf("Bytes = %d, want >= 2 MiB", st.Bytes)
	}
}

// TestMaxFrameRejected pins the tcpnet-parity contract: an encoded message
// past wire.MaxFrame fails at Send with wire.ErrFrameTooLarge and never
// enters the network.
func TestMaxFrameRejected(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, b, _, _ := pair(t, n)

	err := a.Send(b.Self(), ping{N: 1, Data: make([]byte, wire.MaxFrame)})
	if !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("Send oversize = %v, want wire.ErrFrameTooLarge", err)
	}
	if st := n.Stats(); st.Sent != 0 {
		t.Errorf("oversize message counted as sent: %+v", st)
	}
	// A message within the limit still goes through.
	if err := a.Send(b.Self(), ping{N: 2}); err != nil {
		t.Fatalf("small Send after oversize: %v", err)
	}
}

// TestQueueByteBudget verifies the per-endpoint byte budget: with the
// receiver's handler blocked, large messages past the budget are dropped
// and counted, and the budget frees as messages drain.
func TestQueueByteBudget(t *testing.T) {
	n := New(Config{})
	n.queueBytes = 64 << 10
	defer n.Close()
	a, err := n.Attach(ids.ProcessEndpoint(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach(ids.ProcessEndpoint(2))
	if err != nil {
		t.Fatal(err)
	}
	unblock := make(chan struct{})
	var mu sync.Mutex
	delivered := 0
	b.SetHandler(func(env wire.Envelope) {
		<-unblock
		mu.Lock()
		delivered++
		mu.Unlock()
	})

	// Each message encodes to ~16 KiB; the budget holds about four. One
	// more is dequeued into the blocked handler. The rest must drop.
	const sends = 12
	for i := 0; i < sends; i++ {
		if err := a.Send(b.Self(), ping{N: i, Data: make([]byte, 16<<10)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := n.Stats()
		if st.Delivered+st.DroppedQueue == sends {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("counters never settled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	st := n.Stats()
	if st.DroppedQueue == 0 {
		t.Fatalf("no drops although %d x 16 KiB exceeded a 64 KiB budget: %+v", sends, st)
	}
	if st.Delivered == 0 {
		t.Fatalf("budget dropped everything: %+v", st)
	}

	close(unblock)
	want := int(st.Delivered)
	for {
		mu.Lock()
		d := delivered
		mu.Unlock()
		if d == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("handler saw %d of %d delivered", d, want)
		}
		time.Sleep(time.Millisecond)
	}
	// With the queue drained the budget is free again.
	if err := a.Send(b.Self(), ping{N: 99, Data: make([]byte, 16<<10)}); err != nil {
		t.Fatalf("Send after drain: %v", err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		d := delivered
		mu.Unlock()
		if d == want+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("post-drain message never delivered; budget not released")
		}
		time.Sleep(time.Millisecond)
	}
}

// gate is a handler that blocks each delivery until released, recording
// payload numbers in delivery order.
type gate struct {
	entered chan struct{}
	release chan struct{}
	mu      sync.Mutex
	got     []int
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (g *gate) handler(env wire.Envelope) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.release
	g.mu.Lock()
	g.got = append(g.got, env.Payload.(ping).N)
	g.mu.Unlock()
}

// open releases n blocked deliveries.
func (g *gate) open(n int) {
	for i := 0; i < n; i++ {
		g.release <- struct{}{}
	}
}

func (g *gate) delivered() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.got...)
}

// blockedPair attaches two endpoints with a gate on the second, sends one
// message and waits until the gate holds it, so the second endpoint's
// queue is empty and nothing leaves it until the gate opens.
func blockedPair(t *testing.T, n *Network) (*Endpoint, *Endpoint, *gate) {
	t.Helper()
	a, err := n.Attach(ids.ProcessEndpoint(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach(ids.ProcessEndpoint(2))
	if err != nil {
		t.Fatal(err)
	}
	g := newGate()
	b.SetHandler(g.handler)
	if err := a.Send(b.Self(), ping{N: 0}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-g.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("first message never reached the handler")
	}
	return a, b, g
}

// TestQueueLenCap verifies the envelope-count cap: with the receiver's
// handler blocked, QueueLen envelopes wait and the rest are dropped and
// counted in DroppedQueue; those that waited are delivered in order.
func TestQueueLenCap(t *testing.T) {
	const capacity, sends = 4, 10
	n := New(Config{QueueLen: capacity})
	defer n.Close()
	a, b, g := blockedPair(t, n)

	for i := 1; i <= sends; i++ {
		if err := a.Send(b.Self(), ping{N: i}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	st := n.Stats()
	if st.Delivered != 1+capacity || st.DroppedQueue != sends-capacity {
		t.Fatalf("Delivered = %d, DroppedQueue = %d; want %d and %d",
			st.Delivered, st.DroppedQueue, 1+capacity, sends-capacity)
	}
	g.open(1 + capacity)
	want := []int{0, 1, 2, 3, 4}
	deadline := time.Now().Add(2 * time.Second)
	for len(g.delivered()) < len(want) {
		if time.Now().After(deadline) {
			t.Fatalf("handler saw %v, want %v", g.delivered(), want)
		}
		time.Sleep(time.Millisecond)
	}
	for i, v := range g.delivered() {
		if v != want[i] {
			t.Fatalf("delivered %v, want %v", g.delivered(), want)
		}
	}
}

// TestFIFOAcrossQueueGrowth sends 10 k messages behind a blocked handler,
// opening it part way between batches, so the queue grows while entries
// leave its front and wraps around its storage. Every message must arrive
// once, in send order.
func TestFIFOAcrossQueueGrowth(t *testing.T) {
	const total = 10000
	n := New(Config{QueueLen: 1 << 14})
	defer n.Close()
	a, b, g := blockedPair(t, n)

	sent := 1
	for _, step := range []struct{ send, open int }{
		{3000, 1500}, {4000, 2000}, {total - 7001, 0},
	} {
		for i := 0; i < step.send; i++ {
			if err := a.Send(b.Self(), ping{N: sent}); err != nil {
				t.Fatalf("Send %d: %v", sent, err)
			}
			sent++
		}
		g.open(step.open)
	}
	g.open(total - 3500)
	deadline := time.Now().Add(5 * time.Second)
	for len(g.delivered()) < total {
		if time.Now().After(deadline) {
			t.Fatalf("handler saw %d of %d", len(g.delivered()), total)
		}
		time.Sleep(time.Millisecond)
	}
	for i, v := range g.delivered() {
		if v != i {
			t.Fatalf("order broken at %d: got %d", i, v)
		}
	}
	if st := n.Stats(); st.DroppedQueue != 0 || st.Delivered != total {
		t.Errorf("Delivered = %d, DroppedQueue = %d; want %d and 0", st.Delivered, st.DroppedQueue, total)
	}
}

// TestAttachPreallocatesNoQueue pins that QueueLen is only a cap: attaching
// an endpoint with a 64 Ki-envelope cap allocates far less than one
// envelope slot per unit of the cap would.
func TestAttachPreallocatesNoQueue(t *testing.T) {
	n := New(Config{QueueLen: 1 << 16})
	defer n.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := n.Attach(ids.ProcessEndpoint(1)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Errorf("Attach allocated %d bytes, want < 64 KiB", grew)
	}
}

// deliverLoops counts the goroutines running an endpoint's deliver loop.
func deliverLoops() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "memnet.(*Endpoint).deliverLoop(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestCloseWithBacklogEndsDeliverLoop closes an endpoint whose handler is
// blocked with a backlog queued behind it. Once the handler returns, the
// deliver loop must exit without handing over the backlog.
func TestCloseWithBacklogEndsDeliverLoop(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, b, g := blockedPair(t, n)
	for i := 1; i <= 100; i++ {
		if err := a.Send(b.Self(), ping{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	g.open(1)
	deadline := time.Now().Add(2 * time.Second)
	for deliverLoops() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d deliver loops still running after Close", deliverLoops())
		}
		time.Sleep(time.Millisecond)
	}
	if got := g.delivered(); len(got) != 1 {
		t.Errorf("handler saw %d messages after Close with a backlog, want only the one it held", len(got))
	}
}
