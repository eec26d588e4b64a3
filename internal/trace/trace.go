// Package trace records framework events across the processes of an
// in-memory deployment and checks the paper's availability invariants over
// them — most importantly the first design goal of Section 2: "there ought
// to be exactly one server at a time that is sending responses for a
// particular session".
//
// Because every process in an experiment shares one wall clock (they run
// in one OS process), primary intervals can be compared directly.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"hafw/internal/ids"
	"hafw/internal/ring"
)

// Kind labels a recorded event.
type Kind string

// Event kinds recorded by the framework and harnesses.
const (
	// KindPromote marks a server becoming a session's primary.
	KindPromote Kind = "promote"
	// KindDemote marks a server ceasing to be a session's primary
	// (demotion, session close, or server stop).
	KindDemote Kind = "demote"
	// KindCrash marks a process crash injected by the harness; open
	// primary intervals at that node close at this instant, and later
	// promote events at the node are ignored until a revive (an isolated
	// process may keep "promoting" itself in its own partition, but it is
	// not part of the live service).
	KindCrash Kind = "crash"
	// KindRevive marks a crashed process rejoining.
	KindRevive Kind = "revive"
	// KindResponse marks a response sent to a client.
	KindResponse Kind = "response"
	// KindUpdate marks a client update applied.
	KindUpdate Kind = "update"
	// KindSpan marks the completion of a timed operation opened with
	// StartSpan; the event's Dur field holds the measured duration.
	KindSpan Kind = "span"
)

// Event is one recorded occurrence.
type Event struct {
	// At is the wall-clock instant.
	At time.Time
	// Node is the process the event happened at.
	Node ids.ProcessID
	// Kind classifies the event.
	Kind Kind
	// Session is the affected session (zero for node-scoped events such as
	// crashes).
	Session ids.SessionID
	// Detail is free-form context.
	Detail string
	// Dur is the measured duration for KindSpan events (zero otherwise).
	Dur time.Duration
}

// Recorder accumulates events; safe for concurrent use. By default it
// grows without bound (experiment harnesses want every event); long-running
// nodes cap it with NewRecorderCapacity, after which the oldest events are
// evicted and counted as dropped.
type Recorder struct {
	mu      sync.Mutex
	events  ring.Ring[Event]
	cap     int // 0 or less = unbounded
	dropped uint64
}

// NewRecorder creates an empty, unbounded recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// NewRecorderCapacity creates a recorder that retains at most capacity
// events, evicting the oldest. capacity <= 0 means unbounded.
func NewRecorderCapacity(capacity int) *Recorder { return &Recorder{cap: capacity} }

// Dropped returns how many events have been evicted to honor the capacity.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// appendLocked adds one event, evicting the oldest when at capacity.
func (r *Recorder) appendLocked(e Event) {
	if r.events.PushEvict(e, r.cap) {
		r.dropped++
	}
}

// Record appends an event stamped now.
func (r *Recorder) Record(node ids.ProcessID, kind Kind, session ids.SessionID, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.appendLocked(Event{
		At: time.Now(), Node: node, Kind: kind, Session: session, Detail: detail,
	})
}

// Span is one in-flight timed operation opened by StartSpan. A span must
// be ended exactly once, on every code path that leaves the function that
// started it — the leakcheck analyzer (cmd/halint) enforces this. Spans
// are not safe for concurrent use; pass ownership, don't share.
type Span struct {
	r       *Recorder
	node    ids.ProcessID
	session ids.SessionID
	detail  string
	start   time.Time
	ended   bool
}

// StartSpan opens a timed span; End records it as a KindSpan event with
// its duration. StartSpan on a nil recorder returns a span whose End is a
// no-op, so call sites don't need to guard optional tracers.
func (r *Recorder) StartSpan(node ids.ProcessID, session ids.SessionID, detail string) *Span {
	if r == nil {
		return nil
	}
	return &Span{r: r, node: node, session: session, detail: detail, start: time.Now()}
}

// End closes the span, recording its duration. Ending twice (or ending a
// nil span) is a no-op.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	s.r.appendLocked(Event{
		At: time.Now(), Node: s.node, Kind: KindSpan, Session: s.session,
		Detail: s.detail, Dur: time.Since(s.start),
	})
}

// Events returns a copy of everything retained, in record order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events.AppendTo(make([]Event, 0, r.events.Len()))
}

// Count returns the number of events of a kind (all kinds if empty).
func (r *Recorder) Count(kind Kind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if kind == "" {
		return r.events.Len()
	}
	n := 0
	for i := 0; i < r.events.Len(); i++ {
		if r.events.At(i).Kind == kind {
			n++
		}
	}
	return n
}

// Interval is one node's primaryship over a session.
type Interval struct {
	// Node held primaryship.
	Node ids.ProcessID
	// Session is the session.
	Session ids.SessionID
	// Start is when the node was promoted.
	Start time.Time
	// End is when it was demoted or crashed; zero if still open.
	End time.Time
}

// open reports whether the interval has no recorded end.
func (iv Interval) open() bool { return iv.End.IsZero() }

// PrimaryIntervals reconstructs, per session, each node's primaryship
// intervals from promote/demote/crash events.
func PrimaryIntervals(events []Event) []Interval {
	type key struct {
		node ids.ProcessID
		sid  ids.SessionID
	}
	sorted := append([]Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At.Before(sorted[j].At) })

	openIv := make(map[key]Interval)
	crashed := make(map[ids.ProcessID]bool)
	var out []Interval
	for _, e := range sorted {
		switch e.Kind {
		case KindPromote:
			if crashed[e.Node] {
				continue // a dead node promoting itself is not service
			}
			k := key{e.Node, e.Session}
			if _, dup := openIv[k]; dup {
				continue // double promote: keep the original start
			}
			openIv[k] = Interval{Node: e.Node, Session: e.Session, Start: e.At}
		case KindDemote:
			k := key{e.Node, e.Session}
			if iv, ok := openIv[k]; ok {
				iv.End = e.At
				out = append(out, iv)
				delete(openIv, k)
			}
		case KindCrash:
			crashed[e.Node] = true
			for k, iv := range openIv {
				if k.node == e.Node {
					iv.End = e.At
					out = append(out, iv)
					delete(openIv, k)
				}
			}
		case KindRevive:
			delete(crashed, e.Node)
		}
	}
	for _, iv := range openIv {
		out = append(out, iv)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Session != out[j].Session {
			return out[i].Session < out[j].Session
		}
		return out[i].Start.Before(out[j].Start)
	})
	return out
}

// Violation is one observed dual-primary window.
type Violation struct {
	// Session is the affected session.
	Session ids.SessionID
	// A and B are the overlapping intervals.
	A, B Interval
	// Overlap is the duration both nodes considered themselves primary.
	Overlap time.Duration
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("session %s: %s and %s both primary for %v",
		v.Session, v.A.Node, v.B.Node, v.Overlap)
}

// DualPrimaryViolations finds windows during which two different live
// nodes were simultaneously primary for the same session. Tolerance
// absorbs benign measurement skew: overlaps no longer than it are ignored
// (a takeover is not instantaneous even in the paper's design — the old
// primary is dead or demoted, but event timestamps are taken at slightly
// different points).
func DualPrimaryViolations(events []Event, tolerance time.Duration) []Violation {
	ivs := PrimaryIntervals(events)
	bySession := make(map[ids.SessionID][]Interval)
	for _, iv := range ivs {
		bySession[iv.Session] = append(bySession[iv.Session], iv)
	}
	now := time.Now()
	var out []Violation
	for sid, list := range bySession {
		for i := 0; i < len(list); i++ {
			for j := i + 1; j < len(list); j++ {
				a, b := list[i], list[j]
				if a.Node == b.Node {
					continue
				}
				ov := overlap(a, b, now)
				if ov > tolerance {
					out = append(out, Violation{Session: sid, A: a, B: b, Overlap: ov})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Session < out[j].Session })
	return out
}

// overlap returns the overlap duration of two intervals (0 if disjoint);
// open intervals extend to now.
func overlap(a, b Interval, now time.Time) time.Duration {
	aEnd, bEnd := a.End, b.End
	if a.open() {
		aEnd = now
	}
	if b.open() {
		bEnd = now
	}
	start := a.Start
	if b.Start.After(start) {
		start = b.Start
	}
	end := aEnd
	if bEnd.Before(end) {
		end = bEnd
	}
	if !end.After(start) {
		return 0
	}
	return end.Sub(start)
}
