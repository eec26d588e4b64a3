// Package leak exercises the same-package leakcheck cases.
package leak

import (
	"context"
	"time"

	"hafw/internal/clock"
)

// spin loops forever with no exit; go-calling it is a leak.
func spin() {
	for {
		time.Sleep(time.Millisecond)
	}
}

func StartLeaky(ch chan int) {
	go spin()   // want `goroutine runs spin, which has no stop path \(its for loop can never exit\); add a ctx\.Done\(\)/closed-channel case that returns`
	go func() { // want `goroutine has no stop path: its for loop can never exit; add a ctx\.Done\(\)/closed-channel case that returns`
		for {
			<-ch
		}
	}()
	go func() { // want `goroutine has no stop path: its for loop can never exit; add a ctx\.Done\(\)/closed-channel case that returns`
		for {
			select {
			case <-ch: // break binds to the select, not the loop
				break
			case <-time.After(time.Second): // want `time\.After in a loop leaks a timer per iteration until it fires; use one time\.NewTimer and Stop it when done`
			}
		}
	}()
}

func StartStoppable(ctx context.Context, ch chan int) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case v := <-ch:
				_ = v
			}
		}
	}()
	go func() {
		for range ch { // drains until close: the close is the stop path
		}
	}()
	go func() {
		for {
			if _, ok := <-ch; !ok {
				break // binds to the loop: escapable
			}
		}
	}()
}

func TickerLeak(d time.Duration, ch chan int) {
	t := time.NewTicker(d) // want `time\.NewTicker result t is never stopped; the ticker leaks — add defer t\.Stop\(\)`
	for {
		select {
		case <-t.C:
		case <-ch:
			return
		}
	}
}

func TimerLeak(d time.Duration) {
	t := time.NewTimer(d) // want `time\.NewTimer result t is never stopped; the timer leaks — add defer t\.Stop\(\)`
	<-t.C
}

func TickerStopped(d time.Duration) {
	t := time.NewTicker(d)
	defer t.Stop()
	<-t.C
}

func TickerEscapes(d time.Duration) *time.Ticker {
	return newTicker(d)
}

// newTicker's result escapes via return: the caller owns the Stop.
func newTicker(d time.Duration) *time.Ticker {
	t := time.NewTicker(d)
	return t
}

func TickLeak(d time.Duration) <-chan time.Time {
	return time.Tick(d) // want `time\.Tick leaks its ticker \(it can never be stopped\); use time\.NewTicker with defer Stop`
}

// DeadlinePoll uses the (time.Time).After METHOD in a loop — not the
// package function; no timer is allocated and nothing should be flagged.
func DeadlinePoll(deadline time.Time, ch chan int) {
	for {
		if time.Now().After(deadline) {
			return
		}
		select {
		case <-ch:
			return
		default:
		}
	}
}

// StopOneBranch stops the ticker on the early return only; the other
// path leaves it running.
func StopOneBranch(d time.Duration, early bool) {
	t := time.NewTicker(d) // want `time\.NewTicker result t is never stopped; the ticker leaks — add defer t\.Stop\(\)`
	if early {
		t.Stop()
		return
	}
	<-t.C
}

// ClockTickerLeak never stops a ticker from the injected clock.
func ClockTickerLeak(ck clock.Clock, stop chan struct{}) {
	ticker := ck.NewTicker(time.Second) // want `clock\.NewTicker result ticker is never stopped; the ticker leaks — add defer ticker\.Stop\(\)`
	for {
		select {
		case <-ticker.C():
		case <-stop:
			return
		}
	}
}

// ClockTickerStopped is the stopped counterpart.
func ClockTickerStopped(ck clock.Clock, stop chan struct{}) {
	ticker := ck.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C():
		case <-stop:
			return
		}
	}
}

// WaitOrNotify stops the timer when notified; on the other case the
// timer has fired, so receiving from its C releases it.
func WaitOrNotify(d time.Duration, notify chan int) bool {
	timer := time.NewTimer(d)
	select {
	case <-notify:
		timer.Stop()
		return true
	case <-timer.C:
		return false
	}
}

// ClockWaitOrStop is WaitOrNotify on the injected clock.
func ClockWaitOrStop(ck clock.Clock, stop chan struct{}) bool {
	t := ck.NewTimer(time.Second)
	select {
	case <-t.C():
		return true
	case <-stop:
		t.Stop()
		return false
	}
}
