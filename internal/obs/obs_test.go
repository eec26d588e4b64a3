package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hafw/internal/metrics"
	"hafw/internal/wire"
)

func TestTracerSpanIdentity(t *testing.T) {
	tr := NewTracer(7, 16)
	root := tr.StartRoot("root")
	rc := root.Context()
	if rc.TraceID == 0 || rc.TraceID != rc.SpanID || rc.ParentID != 0 {
		t.Fatalf("root context = %+v", rc)
	}
	if rc.SpanID>>40 != 7 {
		t.Errorf("span ID high bits = %d, want node 7", rc.SpanID>>40)
	}
	child := tr.StartChild("child", rc)
	cc := child.Context()
	if cc.TraceID != rc.TraceID || cc.ParentID != rc.SpanID || cc.SpanID == rc.SpanID {
		t.Fatalf("child context = %+v (root %+v)", cc, rc)
	}
	child.End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("Spans = %d, want 2", len(spans))
	}
	// Completion order: the child ended first.
	if spans[0].Name != "child" || spans[1].Name != "root" {
		t.Errorf("span order = %s, %s", spans[0].Name, spans[1].Name)
	}
	if spans[0].Node != 7 {
		t.Errorf("span node = %v, want 7", spans[0].Node)
	}
}

func TestTracerChildOfZeroStartsNewTrace(t *testing.T) {
	tr := NewTracer(1, 16)
	sp := tr.StartChild("orphan", wire.TraceContext{})
	tc := sp.Context()
	sp.End()
	if tc.TraceID == 0 || tc.TraceID != tc.SpanID || tc.ParentID != 0 {
		t.Fatalf("zero-parent child context = %+v, want fresh root", tc)
	}
}

func TestTracerRingEvictsAndCounts(t *testing.T) {
	tr := NewTracer(1, 2)
	for i := 0; i < 5; i++ {
		tr.StartRoot("s").End()
	}
	if got := tr.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	if got := len(tr.Spans()); got != 2 {
		t.Fatalf("retained = %d, want 2", got)
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRoot("x")
	sp.End()
	if got := sp.Context(); !got.IsZero() {
		t.Errorf("nil span Context = %+v, want zero", got)
	}
	if tr.Spans() != nil || tr.Dropped() != 0 || tr.Node() != 0 {
		t.Error("nil tracer accessors must return zero values")
	}
	if !tr.RootContext().IsZero() || !tr.ChildContext(wire.TraceContext{TraceID: 1, SpanID: 1}).IsZero() {
		t.Error("nil tracer contexts must be zero")
	}
	tr.RecordSpan("x", wire.TraceContext{TraceID: 1, SpanID: 1}, time.Now())
}

func TestRecordSpanExplicitLifetime(t *testing.T) {
	tr := NewTracer(3, 16)
	tc := tr.RootContext()
	start := time.Now().Add(-50 * time.Millisecond)
	tr.RecordSpan("exchange", tc, start)
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	if spans[0].Dur < 50*time.Millisecond {
		t.Errorf("Dur = %v, want >= 50ms", spans[0].Dur)
	}
	// Zero contexts (nil tracer upstream) are silently skipped.
	tr.RecordSpan("skip", wire.TraceContext{}, start)
	if len(tr.Spans()) != 1 {
		t.Error("zero-context RecordSpan must not record")
	}
}

func TestWritePromFormat(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("sessions_started").Add(3)
	reg.Counter(`transport_send_total{type="vsync.Data"}`).Add(9)
	reg.Gauge("live_sessions").Set(2)
	h := reg.Histogram(`viewchange_duration_seconds{phase="membership"}`)
	h.Observe(200 * time.Microsecond)
	h.Observe(3 * time.Millisecond)

	var b strings.Builder
	if err := WriteProm(&b, reg); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE hafw_sessions_started counter\n",
		"hafw_sessions_started 3\n",
		"# TYPE hafw_transport_send_total counter\n",
		`hafw_transport_send_total{type="vsync.Data"} 9` + "\n",
		"# TYPE hafw_live_sessions gauge\n",
		"hafw_live_sessions 2\n",
		"# TYPE hafw_viewchange_duration_seconds histogram\n",
		`hafw_viewchange_duration_seconds_count{phase="membership"} 2` + "\n",
		`hafw_viewchange_duration_seconds_bucket{phase="membership",le="+Inf"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}

	// Bucket lines are cumulative and stay in ascending le order even
	// though %g renders mixed fixed/exponent notation.
	var les []float64
	var cums []uint64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "hafw_viewchange_duration_seconds_bucket") || strings.Contains(line, "+Inf") {
			continue
		}
		i := strings.Index(line, `le="`)
		j := strings.Index(line[i+4:], `"`)
		le, err := strconv.ParseFloat(line[i+4:i+4+j], 64)
		if err != nil {
			t.Fatalf("parse le in %q: %v", line, err)
		}
		cum, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse count in %q: %v", line, err)
		}
		les = append(les, le)
		cums = append(cums, cum)
	}
	if len(les) < 2 {
		t.Fatalf("want >= 2 finite bucket lines, got %d", len(les))
	}
	for i := 1; i < len(les); i++ {
		if les[i] <= les[i-1] {
			t.Errorf("le out of order: %v", les)
		}
		if cums[i] < cums[i-1] {
			t.Errorf("cumulative counts decrease: %v", cums)
		}
	}
}

func TestChromeMergeFlowsAndLinks(t *testing.T) {
	base := time.Date(2026, 8, 1, 10, 0, 0, 0, time.UTC)
	mk := func(traceID, span, parent uint64, name string, atMS int) SpanRecord {
		return SpanRecord{
			TC:    wire.TraceContext{TraceID: traceID, SpanID: span, ParentID: parent},
			Name:  name,
			Start: base.Add(time.Duration(atMS) * time.Millisecond),
			Dur:   time.Millisecond,
		}
	}
	dumps := []TraceDump{
		{Node: 1, Spans: []SpanRecord{
			mk(100, 100, 0, "client.request", 0),
			mk(100, 103, 102, "core.response", 20), // parent 102 lives on node 2
		}},
		{Node: 2, Spans: []SpanRecord{
			mk(100, 102, 100, "core.request", 10), // parent 100 lives on node 1
			mk(200, 200, 0, "core.view-change", 30),
		}},
	}
	events := MergeChrome(dumps)

	var xCount, sCount, fCount int
	for _, e := range events {
		switch e.Ph {
		case "X":
			xCount++
		case "s":
			sCount++
		case "f":
			fCount++
			if e.BP != "e" {
				t.Errorf("flow finish without bp=e: %+v", e)
			}
		}
	}
	if xCount != 4 {
		t.Errorf("X events = %d, want 4", xCount)
	}
	// Two parent links resolve (100→102 and 102→103), both cross-node.
	if sCount != 2 || fCount != 2 {
		t.Errorf("flow events = %d starts / %d finishes, want 2/2", sCount, fCount)
	}
	if got := CrossNodeLinks(dumps); got != 2 {
		t.Errorf("CrossNodeLinks = %d, want 2 (100→102 and 102→103)", got)
	}

	data, err := EncodeChrome(events)
	if err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("EncodeChrome output is not a JSON array: %v", err)
	}
}

func TestOpsServerEndpoints(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("updates_applied").Add(5)
	tr := NewTracer(4, 4)
	tr.StartRoot("seed").End()
	for i := 0; i < 6; i++ {
		tr.StartRoot("filler").End() // overflow the ring to exercise drops
	}

	h := NewHandler(ServerConfig{
		Registry: reg,
		Tracer:   tr,
		Status: func() NodeStatus {
			return NodeStatus{Node: 4, DirGroups: 3, Units: []UnitStatus{{Unit: "u", Synced: true, Tombstones: 7, TombstoneRanges: 2}}}
		},
		Health: func() error { return nil },
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		"hafw_updates_applied 5",
		`hafw_trace_events_dropped{buffer="spans"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n---\n%s", want, body)
		}
	}

	code, body = get("/statusz")
	if code != 200 {
		t.Fatalf("/statusz status = %d", code)
	}
	var st NodeStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/statusz not JSON: %v", err)
	}
	if st.Node != 4 || len(st.Units) != 1 || st.Counters["updates_applied"] != 5 {
		t.Errorf("statusz = %+v", st)
	}
	if st.TraceDropped == 0 {
		t.Error("statusz TraceDropped = 0, want > 0")
	}
	for _, field := range []string{`"dir_groups": 3`, `"tombstones": 7`, `"tombstone_ranges": 2`} {
		if !strings.Contains(body, field) {
			t.Errorf("/statusz missing %s\n---\n%s", field, body)
		}
	}

	code, body = get("/healthz")
	if code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body = get("/debug/trace")
	if code != 200 {
		t.Fatalf("/debug/trace status = %d", code)
	}
	var dump TraceDump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/debug/trace not JSON: %v", err)
	}
	if dump.Node != 4 || len(dump.Spans) != 4 || dump.Dropped != 3 {
		t.Errorf("trace dump = node %d, %d spans, %d dropped", dump.Node, len(dump.Spans), dump.Dropped)
	}

	code, _ = get("/debug/pprof/cmdline")
	if code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}

func TestServeBindsSynchronously(t *testing.T) {
	addr, closeFn, err := Serve("127.0.0.1:0", ServerConfig{Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("scrape immediately after Serve: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}
