package clock

import "time"

// Clock is a stub of the injected clock.
type Clock interface {
	NewTimer(d time.Duration) Timer
	NewTicker(d time.Duration) Ticker
}

// Timer is a stub of a stoppable single-shot timer.
type Timer interface {
	C() <-chan time.Time
	Stop() bool
	Reset(d time.Duration) bool
}

// Ticker is a stub of a stoppable periodic ticker.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}
