// Package obs is the live observability layer: cross-node causal tracing
// with wire-propagated contexts, Prometheus text exposition over the
// metrics registry, and the ops HTTP endpoints (/metrics, /statusz,
// /healthz, /debug/trace, /debug/pprof) a running hanode serves.
//
// Everything here is strictly read-only with respect to replicated state:
// trace contexts ride the wire verbatim and no replicated transition may
// branch on anything this package produces.
package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"hafw/internal/ids"
	"hafw/internal/ring"
	"hafw/internal/wire"
)

// DefaultSpanCapacity bounds the per-node span ring when the caller does
// not choose one.
const DefaultSpanCapacity = 8192

// SpanRecord is one completed span as retained by the ring buffer and
// dumped by /debug/trace.
type SpanRecord struct {
	// TC is the span's identity and parent linkage.
	TC wire.TraceContext `json:"tc"`
	// Name labels the operation (for example "core.request").
	Name string `json:"name"`
	// Node is the process the span ran on.
	Node ids.ProcessID `json:"node"`
	// Start is the span's wall-clock start.
	Start time.Time `json:"start"`
	// Dur is the measured duration.
	Dur time.Duration `json:"dur_ns"`
}

// Tracer allocates span identities for one node and retains completed
// spans in a bounded ring. A nil *Tracer is valid everywhere: it returns
// nil spans whose methods are no-ops, so call sites never guard.
//
// Span IDs embed the node identifier in the high bits over a per-tracer
// atomic counter — no random source, so instrumented code stays admissible
// under the determinism analyzer.
type Tracer struct {
	node ids.ProcessID
	next atomic.Uint64

	mu      sync.Mutex
	spans   ring.Ring[SpanRecord]
	cap     int
	dropped uint64
}

// NewTracer creates a tracer for node retaining at most capacity completed
// spans (capacity <= 0 selects DefaultSpanCapacity).
func NewTracer(node ids.ProcessID, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &Tracer{node: node, cap: capacity}
}

// Node returns the process the tracer belongs to.
func (t *Tracer) Node() ids.ProcessID {
	if t == nil {
		return 0
	}
	return t.node
}

// nextID returns a cluster-unique span identifier: 24 bits of node in the
// high bits over a monotone counter. IDs are never zero.
func (t *Tracer) nextID() uint64 {
	return (uint64(t.node)&0xffffff)<<40 | t.next.Add(1)
}

// StartRoot opens a span beginning a new trace.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	id := t.nextID()
	return &Span{
		t:     t,
		name:  name,
		start: time.Now(),
		tc:    wire.TraceContext{TraceID: id, SpanID: id},
	}
}

// StartChild opens a span caused by parent. A zero parent starts a new
// trace instead, so receivers of untraced messages degrade gracefully.
func (t *Tracer) StartChild(name string, parent wire.TraceContext) *Span {
	if t == nil {
		return nil
	}
	if parent.IsZero() {
		return t.StartRoot(name)
	}
	return &Span{
		t:     t,
		name:  name,
		start: time.Now(),
		tc: wire.TraceContext{
			TraceID:  parent.TraceID,
			SpanID:   t.nextID(),
			ParentID: parent.SpanID,
		},
	}
}

// RootContext allocates a fresh root trace context without opening a
// span. Pair with RecordSpan to trace an operation whose lifetime crosses
// handler boundaries (for example a state exchange, which begins at a view
// install and ends when the last delta arrives).
func (t *Tracer) RootContext() wire.TraceContext {
	if t == nil {
		return wire.TraceContext{}
	}
	id := t.nextID()
	return wire.TraceContext{TraceID: id, SpanID: id}
}

// ChildContext allocates a context caused by parent (a fresh root when
// parent is zero), without opening a span.
func (t *Tracer) ChildContext(parent wire.TraceContext) wire.TraceContext {
	if t == nil {
		return wire.TraceContext{}
	}
	if parent.IsZero() {
		return t.RootContext()
	}
	return wire.TraceContext{
		TraceID:  parent.TraceID,
		SpanID:   t.nextID(),
		ParentID: parent.SpanID,
	}
}

// RecordSpan retains a completed span under a context allocated earlier
// with RootContext/ChildContext, measuring from the given start time.
func (t *Tracer) RecordSpan(name string, tc wire.TraceContext, start time.Time) {
	if t == nil || tc.IsZero() {
		return
	}
	t.record(SpanRecord{
		TC:    tc,
		Name:  name,
		Node:  t.node,
		Start: start,
		Dur:   time.Since(start),
	})
}

// record retains one completed span, evicting the oldest at capacity.
func (t *Tracer) record(rec SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans.PushEvict(rec, t.cap) {
		t.dropped++
	}
}

// Spans returns the retained completed spans in completion order.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans.AppendTo(make([]SpanRecord, 0, t.spans.Len()))
}

// Dropped returns how many completed spans the ring has evicted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Span is one in-flight operation. Like trace.Span, a span must be ended
// exactly once on every path leaving the function that started it — the
// leakcheck analyzer (cmd/halint) enforces this. Spans are not safe for
// concurrent use; pass ownership, don't share.
type Span struct {
	t     *Tracer
	name  string
	start time.Time
	tc    wire.TraceContext
	ended bool
}

// Context returns the span's trace context for stamping onto outgoing
// messages. A nil span returns the zero (untraced) context.
func (s *Span) Context() wire.TraceContext {
	if s == nil {
		return wire.TraceContext{}
	}
	return s.tc
}

// End completes the span and retains it in the tracer's ring. Ending twice
// (or ending a nil span) is a no-op.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.t.record(SpanRecord{
		TC:    s.tc,
		Name:  s.name,
		Node:  s.t.node,
		Start: s.start,
		Dur:   time.Since(s.start),
	})
}
