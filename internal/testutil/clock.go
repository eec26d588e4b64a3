package testutil

import (
	"time"

	"hafw/internal/clock"
)

// FrozenClock is the wall clock with Now stopped where it was made: timers
// and sleeps run, but nothing stamped from Now ever ages.
type FrozenClock struct {
	clock.Clock
	at time.Time
}

// NewFrozenClock returns a FrozenClock stopped at the current time.
func NewFrozenClock() FrozenClock {
	return FrozenClock{Clock: clock.OrReal(nil), at: time.Now()}
}

// Now returns the moment the clock was made.
func (c FrozenClock) Now() time.Time { return c.at }

// Since measures from the moment the clock was made.
func (c FrozenClock) Since(t time.Time) time.Duration { return c.at.Sub(t) }
