package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// SpanID names a recorded span within its Tracer; zero means "no parent".
type SpanID uint64

// Span is one timed interval the bench recorded around its own call into
// a layer (or around a fault action). Spans of one operation share Op.
type Span struct {
	ID     SpanID
	Parent SpanID
	Op     uint64
	Name   string
	Track  int
	Start  time.Duration // from the tracer's origin
	End    time.Duration
}

// Tracer keeps the bench-side spans of a traced run in memory until the
// run ends. Each goroutine records on its own Track, so recording takes no
// shared lock.
type Tracer struct {
	origin time.Time

	mu     sync.Mutex
	tracks []*Track
}

// NewTracer starts a tracer whose span times count from origin.
func NewTracer(origin time.Time) *Tracer { return &Tracer{origin: origin} }

// Track returns a new recording lane (one per goroutine). A nil Tracer
// yields a nil Track, whose Add is a no-op: untraced runs pay a nil check.
func (t *Tracer) Track(name string) *Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := &Track{t: t, id: len(t.tracks) + 1, name: name, spans: make([]Span, 0, trackCapacity)}
	t.tracks = append(t.tracks, tr)
	return tr
}

// trackCapacity bounds the spans one lane keeps: memory and the trace file
// stay bounded however fast the workload runs. Later spans are counted,
// not kept.
const trackCapacity = 1 << 16

// Track is one goroutine's span lane.
type Track struct {
	t       *Tracer
	id      int
	name    string
	spans   []Span
	dropped int
}

// On reports whether spans recorded here are kept.
func (tr *Track) On() bool { return tr != nil }

// Add records a finished span and returns its ID for use as a parent.
func (tr *Track) Add(name string, op uint64, parent SpanID, start, end time.Time) SpanID {
	if tr == nil {
		return 0
	}
	if len(tr.spans) == cap(tr.spans) {
		tr.dropped++
		return 0
	}
	id := SpanID(tr.id)<<40 | SpanID(len(tr.spans)+1)
	tr.spans = append(tr.spans, Span{
		ID: id, Parent: parent, Op: op, Name: name, Track: tr.id,
		Start: start.Sub(tr.t.origin), End: end.Sub(tr.t.origin),
	})
	return id
}

// Spans returns every recorded span ordered by start time. Call it only
// after the recording goroutines have stopped.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, tr := range t.tracks {
		out = append(out, tr.spans...)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// Dropped is how many spans did not fit their lanes.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, tr := range t.tracks {
		n += tr.dropped
	}
	return n
}

// Durations returns the sorted durations (ns) of the spans called name
// that start inside [from, to) of the tracer's timeline.
func Durations(spans []Span, name string, from, to time.Duration) []int64 {
	var out []int64
	for _, s := range spans {
		if s.Name == name && s.Start >= from && s.Start < to {
			out = append(out, int64(s.End-s.Start))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and Perfetto load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the spans as one Chrome trace-event file.
func (t *Tracer) WriteChromeTrace(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	if _, err := w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n"); err != nil {
		return err
	}
	first := true
	emit := func(ev chromeEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if _, err := w.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = w.Write(b)
		return err
	}
	t.mu.Lock()
	tracks := append([]*Track(nil), t.tracks...)
	t.mu.Unlock()
	for _, tr := range tracks {
		if err := emit(chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: tr.id,
			Args: map[string]any{"name": tr.name}}); err != nil {
			return err
		}
	}
	for _, s := range t.Spans() {
		ev := chromeEvent{
			Name: s.Name, Cat: "bench", Ph: "X", PID: 1, TID: s.Track,
			TS:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"op": s.Op, "id": fmt.Sprintf("%x", uint64(s.ID)),
				"parent": fmt.Sprintf("%x", uint64(s.Parent))},
		}
		if err := emit(ev); err != nil {
			return err
		}
	}
	if _, err := w.WriteString("\n]}\n"); err != nil {
		return err
	}
	return w.Flush()
}
