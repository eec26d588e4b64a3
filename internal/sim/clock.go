package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hafw/internal/clock"
)

// Clock is a virtual clock.Clock backed by a Scheduler. Each simulated
// node gets its own Clock so chaos can skew them independently: an offset
// shifts what Now reports (and therefore every timestamp the node writes —
// failure-detector heartbeats, activity stamps) without changing how fast
// timers run. That models real clock skew: durations are measured
// correctly by the local oscillator, absolute readings disagree.
type Clock struct {
	s      *Scheduler
	offset atomic.Int64 // nanoseconds added to Now readings
}

var _ clock.Skewable = (*Clock)(nil)

// Clock returns a virtual clock with no skew, for infrastructure shared
// by all nodes (the network fabric, the chaos driver, clients).
func (s *Scheduler) Clock() *Clock { return &Clock{s: s} }

// Skewed implements clock.Skewable: an unskewed clock on c's scheduler,
// for one node that chaos can skew on its own.
func (c *Clock) Skewed() clock.Skewable { return c.s.Clock() }

// SetOffset implements clock.Skewable: subsequent Now readings are
// shifted by d relative to the scheduler's virtual time.
func (c *Clock) SetOffset(d time.Duration) { c.offset.Store(int64(d)) }

// Offset implements clock.Skewable.
func (c *Clock) Offset() time.Duration { return time.Duration(c.offset.Load()) }

// Now implements clock.Clock.
func (c *Clock) Now() time.Time {
	return c.s.Now().Add(time.Duration(c.offset.Load()))
}

// Since implements clock.Clock.
func (c *Clock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Sleep implements clock.Clock. It must be called from a goroutine other
// than the scheduler's driver (sleeping the driver would deadlock virtual
// time).
func (c *Clock) Sleep(d time.Duration) {
	if d <= 0 {
		runtime.Gosched()
		return
	}
	t := c.NewTimer(d)
	<-t.C()
}

// After implements clock.Clock.
func (c *Clock) After(d time.Duration) <-chan time.Time {
	return c.NewTimer(d).C()
}

// AfterFunc implements clock.Clock. f runs inline on the scheduler's
// driver goroutine at its virtual due time, so it must not block on
// virtual time itself (the same constraint time.AfterFunc places on
// blocking the timer goroutine, sharpened).
func (c *Clock) AfterFunc(d time.Duration, f func()) clock.Timer {
	return newSimTimer(c, d, f)
}

// NewTimer implements clock.Clock.
func (c *Clock) NewTimer(d time.Duration) clock.Timer {
	return newSimTimer(c, d, nil)
}

// NewTicker implements clock.Clock.
func (c *Clock) NewTicker(d time.Duration) clock.Ticker {
	if d <= 0 {
		panic("sim: non-positive ticker period")
	}
	t := &simTicker{c: c, d: d, ch: make(chan time.Time, 1)}
	t.mu.Lock()
	t.ev = c.s.schedule(d, t.fire)
	t.mu.Unlock()
	return t
}

// simTimer is a one-shot virtual timer. Like time.Timer its channel has
// capacity one and fires drop rather than block.
type simTimer struct {
	c  *Clock
	ch chan time.Time // nil in AfterFunc mode
	f  func()         // nil in channel mode

	mu sync.Mutex
	ev *event // pending event, nil once fired or stopped
}

func newSimTimer(c *Clock, d time.Duration, f func()) *simTimer {
	t := &simTimer{c: c, f: f}
	if f == nil {
		t.ch = make(chan time.Time, 1)
	}
	t.mu.Lock()
	t.ev = c.s.schedule(d, t.fire)
	t.mu.Unlock()
	return t
}

func (t *simTimer) fire(now time.Time) {
	t.mu.Lock()
	t.ev = nil
	f := t.f
	t.mu.Unlock()
	if f != nil {
		f()
		return
	}
	select {
	case t.ch <- now.Add(t.c.Offset()):
	default:
	}
}

// C implements clock.Timer.
func (t *simTimer) C() <-chan time.Time { return t.ch }

// Stop implements clock.Timer.
func (t *simTimer) Stop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ev == nil {
		return false
	}
	ok := t.c.s.cancel(t.ev)
	t.ev = nil
	return ok
}

// Reset implements clock.Timer.
func (t *simTimer) Reset(d time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	active := false
	if t.ev != nil {
		active = t.c.s.cancel(t.ev)
	}
	t.ev = t.c.s.schedule(d, t.fire)
	return active
}

// simTicker is a repeating virtual timer. Each fire reschedules itself at
// exactly one period later (no drift: the reschedule happens while virtual
// now equals the fire time) and sends non-blockingly like time.Ticker.
type simTicker struct {
	c  *Clock
	d  time.Duration
	ch chan time.Time

	mu      sync.Mutex
	ev      *event
	stopped bool
}

func (t *simTicker) fire(now time.Time) {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return
	}
	t.ev = t.c.s.schedule(t.d, t.fire)
	t.mu.Unlock()
	select {
	case t.ch <- now.Add(t.c.Offset()):
	default:
	}
}

// C implements clock.Ticker.
func (t *simTicker) C() <-chan time.Time { return t.ch }

// Stop implements clock.Ticker.
func (t *simTicker) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stopped = true
	if t.ev != nil {
		t.c.s.cancel(t.ev)
		t.ev = nil
	}
}
