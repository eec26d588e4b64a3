package bench

import (
	"fmt"
	"sync"
	"time"

	"hafw/internal/core"
	"hafw/internal/loadgen"
	"hafw/internal/wire"
)

// opTimeout is how long a closed-loop operation may stay unanswered
// before it counts as failed and the client moves on.
const opTimeout = 2 * time.Second

// violations collects correctness failures found while a run is going:
// anything here makes the run incorrect and the process exit non-zero.
type violations struct {
	mu    sync.Mutex
	count int
	first []string
}

func (v *violations) add(format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.count++
	if len(v.first) < 20 {
		v.first = append(v.first, fmt.Sprintf(format, args...))
	}
}

// merge folds another collection into v.
func (v *violations) merge(more *violations) {
	more.mu.Lock()
	defer more.mu.Unlock()
	v.mu.Lock()
	defer v.mu.Unlock()
	v.count += more.count
	for _, msg := range more.first {
		if len(v.first) < 20 {
			v.first = append(v.first, msg)
		}
	}
}

func (v *violations) list() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := append([]string(nil), v.first...)
	if v.count > len(out) {
		out = append(out, fmt.Sprintf("... and %d more", v.count-len(out)))
	}
	return out
}

// recorder is one client goroutine's preallocated sample log. Latencies
// stay raw so percentiles are exact.
type recorder struct {
	origin  time.Time
	samples []Sample
}

func newRecorder(origin time.Time, capacity int) *recorder {
	return &recorder{origin: origin, samples: make([]Sample, 0, capacity)}
}

// done records an operation keyed at time at (completion for a closed
// loop, due time for an open loop); ok=false marks it failed.
func (r *recorder) done(at time.Time, lat time.Duration, ok bool) {
	s := Sample{At: int64(at.Sub(r.origin)), Lat: int64(lat)}
	if !ok {
		s.Lat = -1
	}
	r.samples = append(r.samples, s)
}

// echoConn is one closed-loop echo conversation: requests carry rising
// sequence numbers, and the handler checks every response against what
// was actually sent. With no fault injected a request is answered exactly
// once, so a repeated or never-sent Seq is a violation.
type echoConn struct {
	name string
	pad  []byte
	viol *violations
	done chan uint64 // capacity 1: at most one request is outstanding

	mu        sync.Mutex
	sent      uint64 // highest Seq sent
	answered  uint64 // highest Seq whose answer was accepted or given up on
	abandoned uint64 // last Seq given up on; its echo may still straggle in
}

func newEchoConn(name string, firstSeq uint64, pad []byte, viol *violations) *echoConn {
	return &echoConn{name: name, pad: pad, viol: viol, done: make(chan uint64, 1),
		sent: firstSeq, answered: firstSeq}
}

// newSeededEchoConn makes client i's conversation for a run: the seed
// picks the payload bytes and where the sequence numbers start.
func newSeededEchoConn(e env, workload string, i int) *echoConn {
	rng := e.rng(i)
	pad := make([]byte, echoPadBytes)
	rng.Read(pad)
	return newEchoConn(fmt.Sprintf("%s client %d", workload, i), uint64(rng.Int31()), pad, e.viol)
}

// handler is the session's response handler.
func (c *echoConn) handler(_ uint64, body wire.Message) {
	resp, ok := body.(loadgen.EchoResp)
	if !ok {
		c.viol.add("%s: unexpected response type %s", c.name, body.WireName())
		return
	}
	c.mu.Lock()
	sent := c.sent
	accept := resp.Seq == sent && c.answered < sent
	late := !accept && resp.Seq != 0 && resp.Seq == c.abandoned
	if accept {
		c.answered = sent
	}
	if late {
		c.abandoned = 0
	}
	c.mu.Unlock()
	switch {
	case resp.Seq > sent:
		c.viol.add("%s: response Seq %d was never sent (highest %d)", c.name, resp.Seq, sent)
	case accept:
		c.done <- resp.Seq
	case late:
		// The op already counted as failed when it timed out.
	default:
		c.viol.add("%s: duplicate response for Seq %d with no fault injected", c.name, resp.Seq)
	}
}

// call sends the next request on sess and waits for its echo. It returns
// when the send was made, when the echo arrived, and whether it did.
func (c *echoConn) call(sess *core.ClientSession, timer *time.Timer) (sentAt, doneAt time.Time, ok bool) {
	c.mu.Lock()
	c.sent++
	seq := c.sent
	c.mu.Unlock()
	err := sess.Send(loadgen.EchoReq{Seq: seq, Pad: c.pad})
	sentAt = time.Now()
	if err == nil && await(c.done, timer) {
		return sentAt, time.Now(), true
	}
	// Refused or timed out: close the books on seq so a late echo is
	// reported as what it is rather than matched to the next request.
	c.mu.Lock()
	late := c.answered == seq
	c.answered = seq
	if !late {
		c.abandoned = seq
	}
	c.mu.Unlock()
	if late {
		<-c.done // the echo raced the timeout; drain it
	}
	return sentAt, time.Now(), false
}

// await waits for a closed-loop operation's completion signal, for at
// most opTimeout, on a timer kept from call to call.
func await[T any](done <-chan T, timer *time.Timer) bool {
	timer.Reset(opTimeout)
	select {
	case <-done:
		if !timer.Stop() {
			<-timer.C
		}
		return true
	case <-timer.C:
		return false
	}
}

// newStoppedTimer returns a timer ready for Reset.
func newStoppedTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return t
}

// stopped reports whether stop has been closed.
func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// sleepUntil sleeps to the deadline or until stop closes, whichever is
// first; it reports false when stop won.
func sleepUntil(deadline time.Time, stop <-chan struct{}) bool {
	d := time.Until(deadline)
	if d <= 0 {
		return !stopped(stop)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}
