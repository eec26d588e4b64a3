package sim

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSchedulerFiresInOrder(t *testing.T) {
	s := NewScheduler()
	clk := s.Clock()
	var mu sync.Mutex
	var got []int
	add := func(i int) {
		mu.Lock()
		got = append(got, i)
		mu.Unlock()
	}
	clk.AfterFunc(300*time.Millisecond, func() { add(3) })
	clk.AfterFunc(100*time.Millisecond, func() { add(1) })
	clk.AfterFunc(200*time.Millisecond, func() { add(2) })
	s.Run(time.Second)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fire order = %v", got)
	}
	if e := s.Elapsed(); e != time.Second {
		t.Fatalf("elapsed = %v, want 1s", e)
	}
}

func TestSchedulerVirtualTimeIsFast(t *testing.T) {
	s := NewScheduler()
	clk := s.Clock()
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < 100 {
			clk.AfterFunc(time.Hour, tick)
		}
	}
	clk.AfterFunc(time.Hour, tick)
	start := time.Now()
	s.Run(101 * time.Hour)
	if fired != 100 {
		t.Fatalf("fired = %d, want 100", fired)
	}
	if real := time.Since(start); real > 5*time.Second {
		t.Fatalf("100 virtual hours took %v of wall clock", real)
	}
}

func TestTimerStopAndReset(t *testing.T) {
	s := NewScheduler()
	clk := s.Clock()
	var fired atomic.Int32
	tm := clk.AfterFunc(100*time.Millisecond, func() { fired.Add(1) })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer = false")
	}
	s.Run(time.Second)
	if fired.Load() != 0 {
		t.Fatal("stopped timer fired")
	}
	if tm.Reset(100 * time.Millisecond) {
		t.Fatal("Reset on stopped timer reported active")
	}
	s.Run(time.Second)
	if fired.Load() != 1 {
		t.Fatalf("reset timer fired %d times, want 1", fired.Load())
	}
}

func TestTickerTicksAndStops(t *testing.T) {
	s := NewScheduler()
	clk := s.Clock()
	tk := clk.NewTicker(time.Second)
	var ticks atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range tk.C() {
			if ticks.Add(1) == 5 {
				return
			}
		}
	}()
	s.Run(10 * time.Second)
	tk.Stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("consumer saw only %d ticks before the ticker stopped", ticks.Load())
	}
	// The consumer exits at five ticks; later fires were dropped on the
	// capacity-one channel, exactly like time.Ticker under a slow reader.
	if ticks.Load() != 5 {
		t.Fatalf("ticks = %d, want 5", ticks.Load())
	}
}

func TestSleepBlocksInVirtualTime(t *testing.T) {
	s := NewScheduler()
	clk := s.Clock()
	var woke atomic.Bool
	var at time.Time
	done := make(chan struct{})
	go func() {
		defer close(done)
		clk.Sleep(42 * time.Second)
		at = clk.Now()
		woke.Store(true)
	}()
	s.Run(time.Minute)
	<-done
	if !woke.Load() {
		t.Fatal("Sleep never returned")
	}
	if want := Epoch.Add(42 * time.Second); !at.Equal(want) {
		t.Fatalf("woke at %v, want %v", at, want)
	}
}

func TestClockSkewShiftsReadingsNotTimers(t *testing.T) {
	s := NewScheduler()
	a, b := s.Clock().Skewed(), s.Clock().Skewed()
	a.SetOffset(10 * time.Second)
	if d := a.Now().Sub(b.Now()); d != 10*time.Second {
		t.Fatalf("skewed delta = %v, want 10s", d)
	}
	// Timers measure durations on the shared scheduler: both fire at the
	// same virtual instant regardless of skew.
	var aAt, bAt time.Duration
	a.AfterFunc(5*time.Second, func() { aAt = s.Elapsed() })
	b.AfterFunc(5*time.Second, func() { bAt = s.Elapsed() })
	s.Run(6 * time.Second)
	if aAt != bAt || aAt != 5*time.Second {
		t.Fatalf("fire offsets = %v, %v, want both 5s", aAt, bAt)
	}
}

func TestSettleWaitsForGoroutineChains(t *testing.T) {
	// A chain of goroutine handoffs between timer fires: each fire sends
	// on an unbuffered channel to a worker, which schedules the next
	// timer. Without settling, Run would race past the worker and the
	// chain would stall.
	s := NewScheduler()
	clk := s.Clock()
	work := make(chan int)
	var hops atomic.Int32
	go func() {
		for n := range work {
			if n >= 50 {
				close(work)
				return
			}
			hops.Add(1)
			clk.AfterFunc(time.Millisecond, func() { work <- n + 1 })
		}
	}()
	clk.AfterFunc(time.Millisecond, func() { work <- 0 })
	s.Run(time.Second)
	if hops.Load() != 50 {
		t.Fatalf("hops = %d, want 50", hops.Load())
	}
}
