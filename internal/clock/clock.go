// Package clock abstracts the passage of time so that protocol packages
// (fd, membership, vsync, core, memnet) can run against either the wall
// clock or a simulated one. Production code passes nil
// (defaulted to Real via OrReal); the discrete-event simulator in
// internal/sim supplies a virtual implementation whose timers fire when
// the scheduler advances virtual time, making 50-node cluster runs both
// fast and deterministic.
//
// The interface mirrors the subset of package time the codebase actually
// uses. Timer and Ticker are interfaces (not structs) because a virtual
// timer's channel is fed by the simulator, not the runtime.
package clock

import "time"

// Clock tells time and schedules future work.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Since returns the elapsed time on this clock since t.
	Since(t time.Time) time.Duration
	// Sleep blocks the calling goroutine for d of this clock's time.
	Sleep(d time.Duration)
	// After returns a channel that receives the clock's time after d.
	// Prefer NewTimer in loops so the timer can be stopped; After is fine
	// for one-shot waits.
	After(d time.Duration) <-chan time.Time
	// AfterFunc schedules f to run after d, returning a Timer whose Stop
	// cancels the call. f runs on an unspecified goroutine.
	AfterFunc(d time.Duration, f func()) Timer
	// NewTimer returns a Timer that fires once after d.
	NewTimer(d time.Duration) Timer
	// NewTicker returns a Ticker that fires every d. d must be > 0.
	NewTicker(d time.Duration) Ticker
}

// Skewable is a clock whose readings can be shifted. An offset moves what
// Now and every timer and tick value report, not how fast timers run:
// real clock skew, where the local oscillator measures durations right
// but absolute readings disagree. The simulator's virtual clock
// implements it, so an in-process cluster can give each server its own.
type Skewable interface {
	Clock
	// Skewed returns a new clock on the same time base with offset zero.
	Skewed() Skewable
	// SetOffset shifts every later reading by d.
	SetOffset(d time.Duration)
	// Offset returns the current shift.
	Offset() time.Duration
}

// Timer is a stoppable single-shot timer. C returns nil for timers
// created by AfterFunc, matching time.Timer.
type Timer interface {
	C() <-chan time.Time
	Stop() bool
	Reset(d time.Duration) bool
}

// Ticker delivers ticks at a fixed period until stopped.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// Real is the wall clock: every method delegates to package time.
var Real Clock = realClock{}

// OrReal returns c, or Real when c is nil. Config structs with an
// optional Clock field call this once at construction.
func OrReal(c Clock) Clock {
	if c == nil {
		return Real
	}
	return c
}

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) Since(t time.Time) time.Duration        { return time.Since(t) }
func (realClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

func (realClock) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{t: time.AfterFunc(d, f)}
}

func (realClock) NewTimer(d time.Duration) Timer {
	t := time.NewTimer(d)
	return realTimer{t: t}
}

func (realClock) NewTicker(d time.Duration) Ticker {
	return realTicker{t: time.NewTicker(d)}
}

type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time        { return r.t.C }
func (r realTimer) Stop() bool                 { return r.t.Stop() }
func (r realTimer) Reset(d time.Duration) bool { return r.t.Reset(d) }

type realTicker struct{ t *time.Ticker }

func (r realTicker) C() <-chan time.Time { return r.t.C }
func (r realTicker) Stop()               { r.t.Stop() }
