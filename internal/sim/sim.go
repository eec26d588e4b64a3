// Package sim is the deterministic cluster simulator: a discrete-event
// scheduler with a virtual clock that drives the whole framework stack —
// servers, clients, failure detectors, membership rounds, propagation
// timers, and the in-memory network's latency model — in simulated time.
// Five virtual minutes of a fifty-node cluster under churn play out in
// seconds of wall clock, and every fault the run injects derives from one
// seeded PRNG, so a failing run's fault trace is replayed by its seed
// alone. Its workload outcome is not: goroutine work within a quantum is
// quiesced, not serialized (see below), so acked and duplicate counts can
// differ between runs of one seed.
//
// The package deliberately does NOT carry the //hafw:simclock directive:
// it is the bridge between virtual and real time, and its quiescence
// detection must nap on the wall clock while the cluster's goroutines
// drain.
//
// The scheduler owns a min-heap of timed events (timer fires, message
// deliveries, chaos actions). Between events no real time needs to pass,
// so virtual time jumps from event to event; the subtlety is that firing
// an event wakes real goroutines (a ticker fire wakes a failure detector,
// a delivery wakes an endpoint's handler loop) whose work schedules new
// events. The scheduler therefore interleaves firing with "settling":
// spinning until the process's event-scheduling activity is quiet, which
// means every goroutine woken by the fired events has either blocked on a
// new virtual timer or finished. Events are fired in quantum batches
// (all events within Quantum of the earliest pending one) so the settle
// cost amortizes over message bursts instead of being paid per timestamp.
//
// The determinism contract this buys is spelled out in DESIGN.md: the
// injected schedule — every crash, restart, partition, skew step, and its
// virtual timestamp — is a pure function of the seed, and the virtual
// clock guarantees timeout arithmetic is identical across runs and across
// hosts. Goroutine interleaving within one quantum is quiesced, not
// serialized.
package sim

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Epoch is the instant virtual time starts at. A fixed date (rather than
// the wall clock at construction) keeps timestamps identical across runs,
// which the byte-stable trace format depends on.
var Epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// event is one scheduled occurrence. Ordering is (at, seq): equal-time
// events fire in scheduling order, which keeps replays stable.
type event struct {
	at       time.Time
	seq      uint64
	fire     func(now time.Time)
	canceled bool
	index    int // heap position, -1 once popped or removed
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Scheduler is the discrete-event core: a virtual now, an event heap, and
// the quiescence machinery that lets real goroutines ride the virtual
// clock. All methods are safe for concurrent use; Run must be called from
// a single driver goroutine.
type Scheduler struct {
	// Quantum batches events: when the scheduler advances, it fires every
	// event within Quantum of the earliest pending one before settling
	// again. Larger quanta amortize settle cost; smaller quanta tighten
	// the ordering between timer fires and the goroutine work they cause.
	Quantum time.Duration
	// SettleRounds is how many consecutive quiet observations of the
	// activity counter count as quiescence.
	SettleRounds int
	// SettleNap is the real-time nap between observations.
	SettleNap time.Duration

	mu   sync.Mutex
	now  time.Time
	heap eventHeap
	seq  uint64

	// activity counts scheduling operations (timer creation, reset, stop,
	// event fires). Settling waits for it to stop moving: any goroutine
	// chain provoked by a fired event eventually either schedules its next
	// timer (bumping the counter) or goes idle.
	activity atomic.Uint64
}

// NewScheduler returns a scheduler at Epoch with default tuning.
func NewScheduler() *Scheduler {
	return &Scheduler{
		Quantum:      50 * time.Millisecond,
		SettleRounds: 3,
		SettleNap:    50 * time.Microsecond,
		now:          Epoch,
	}
}

// Now returns the current virtual instant (unskewed; per-node clocks add
// their own offsets on top).
func (s *Scheduler) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Elapsed returns how much virtual time has passed since Epoch.
func (s *Scheduler) Elapsed() time.Duration {
	return s.Now().Sub(Epoch)
}

// schedule enqueues fire to run d from now (negative d clamps to now:
// virtual time never runs backwards).
func (s *Scheduler) schedule(d time.Duration, fire func(now time.Time)) *event {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	ev := &event{at: s.now.Add(d), seq: s.seq, fire: fire}
	s.seq++
	heap.Push(&s.heap, ev)
	s.mu.Unlock()
	s.activity.Add(1)
	return ev
}

// cancel removes a pending event; it reports whether the event had not
// yet fired.
func (s *Scheduler) cancel(ev *event) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.activity.Add(1)
	if ev.canceled || ev.index < 0 {
		return false
	}
	ev.canceled = true
	heap.Remove(&s.heap, ev.index)
	return true
}

// next returns the earliest pending event time.
func (s *Scheduler) next() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.heap) == 0 {
		return time.Time{}, false
	}
	return s.heap[0].at, true
}

// due reports whether any event is pending at or before end.
func (s *Scheduler) due(end time.Time) bool {
	t, ok := s.next()
	return ok && !t.After(end)
}

// fireDue pops and fires every event at or before end, advancing virtual
// now to each event's timestamp. Fires run on the caller's goroutine with
// no scheduler lock held, so a fire may freely schedule or cancel.
func (s *Scheduler) fireDue(end time.Time) int {
	n := 0
	for {
		s.mu.Lock()
		if len(s.heap) == 0 || s.heap[0].at.After(end) {
			s.mu.Unlock()
			return n
		}
		ev := heap.Pop(&s.heap).(*event)
		if ev.at.After(s.now) {
			s.now = ev.at
		}
		s.mu.Unlock()
		s.activity.Add(1)
		ev.fire(ev.at)
		n++
	}
}

// setNow advances virtual time to t (never backwards).
func (s *Scheduler) setNow(t time.Time) {
	s.mu.Lock()
	if t.After(s.now) {
		s.now = t
	}
	s.mu.Unlock()
}

// settle blocks until the process's scheduling activity has been quiet
// for SettleRounds consecutive observations: every goroutine woken by
// previously fired events has either parked on a new virtual timer or
// finished its work. This is the only place the simulator touches the
// wall clock.
func (s *Scheduler) settle() {
	last := s.activity.Load()
	stable := 0
	for stable < s.SettleRounds {
		for i := 0; i < 16; i++ {
			runtime.Gosched()
		}
		time.Sleep(s.SettleNap)
		if cur := s.activity.Load(); cur == last {
			stable++
		} else {
			last, stable = cur, 0
		}
	}
}

// Run advances virtual time by d, firing every event that falls due. It
// returns with virtual now exactly d later than it started, even if the
// event heap drains early (tickers normally keep it populated forever —
// Run's horizon is the only stop condition).
func (s *Scheduler) Run(d time.Duration) {
	s.mu.Lock()
	end := s.now.Add(d)
	s.mu.Unlock()

	// Let goroutines started before Run register their first timers.
	s.settle()
	for {
		next, ok := s.next()
		if !ok || next.After(end) {
			break
		}
		wend := next.Add(s.Quantum)
		if wend.After(end) {
			wend = end
		}
		// Fire-and-settle until the window is exhausted: work provoked by
		// fired events may schedule more events inside the same window
		// (message hops shorter than the quantum).
		for {
			s.fireDue(wend)
			s.settle()
			if !s.due(wend) {
				break
			}
		}
		s.setNow(wend)
	}
	s.setNow(end)
	s.settle()
}
