package bench

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hafw/internal/loadgen"
	"hafw/internal/services/vod"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1) // 1..100
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 1}, {0.5, 50}, {0.99, 99}, {0.991, 100}, {1, 100}} {
		if got := Percentile(sorted, c.q); got != c.want {
			t.Errorf("Percentile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := Percentile([]int64{7, 9, 1000}, 0.5); got != 9 {
		t.Errorf("median of three = %d, want 9 (an element, never an interpolation)", got)
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("empty population = %d, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
	if got := Median([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("even median = %v, want 3 (mean of the middle two)", got)
	}
	// One wild slice out of ten must not move the run's number.
	quiet := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := append([]float64(nil), quiet...)
	noisy[3] = 5000
	if a, b := Median(quiet), Median(noisy); math.Abs(a-b) > 0.5 {
		t.Errorf("one noisy slice moved the median from %v to %v", a, b)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1_000_000, 0.9999}, {100_000, 0.9999}, {99_999, 0.999}, {10_000, 0.999}, {1_000, 0.99}, {999, 0.9}, {100, 0.9}, {50, 0.5}} {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestCutSlices(t *testing.T) {
	sec := int64(time.Second)
	bounds := []int64{0, 2 * sec, 4*sec + 1000} // boundaries as sampled, not round
	cpu := []float64{10, 10.5, 11.5}
	samples := []Sample{
		{At: -1, Lat: 999},         // warm-up: dropped
		{At: 0, Lat: 300},          // slice 0
		{At: sec, Lat: 100},        // slice 0
		{At: 2*sec - 1, Lat: 200},  // slice 0
		{At: sec, Lat: -1},         // slice 0, failed
		{At: 2 * sec, Lat: 50},     // slice 1 (lower bound inclusive)
		{At: 4 * sec, Lat: 70},     // slice 1 (sampled bound is past 4 s)
		{At: 4*sec + 1000, Lat: 1}, // drain: dropped
	}
	got := CutSlices(samples, bounds, cpu)
	if len(got) != 2 {
		t.Fatalf("got %d slices, want 2", len(got))
	}
	s0, s1 := got[0], got[1]
	if s0.Ops != 3 || s0.Failed != 1 || s0.P50 != 200 || s0.P99 != 300 {
		t.Errorf("slice 0 = %+v", s0)
	}
	if s1.Ops != 2 || s1.Failed != 0 || s1.P50 != 50 || s1.P99 != 70 {
		t.Errorf("slice 1 = %+v", s1)
	}
	if got := s0.Throughput(); got != 1.5 {
		t.Errorf("slice 0 throughput = %v, want 1.5/s: failed ops do not count", got)
	}
	if got := s0.CPUPerOp(); math.Abs(got-0.5e6/3) > 1e-6 {
		t.Errorf("slice 0 cpu/op = %v us, want %v", got, 0.5e6/3)
	}
	if got := s1.CPUPerOp(); math.Abs(got-0.5e6) > 1e-6 {
		t.Errorf("slice 1 cpu/op = %v us, want 500000", got)
	}
	if got := Median([]float64{float64(s0.P50), float64(s1.P50)}); got != 125 {
		t.Errorf("slice median of p50 = %v, want 125", got)
	}
	if pooled := PooledLatencies(samples, bounds[0], bounds[2]); !reflect.DeepEqual(pooled, []int64{50, 70, 100, 200, 300}) {
		t.Errorf("pooled = %v", pooled)
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	a, b := NewSchedule(500, 2, 0), NewSchedule(500, 2, 1)
	if a.Period != 4*time.Millisecond || b.Period != 4*time.Millisecond {
		t.Fatalf("periods %v %v, want 4ms each for 500/s over two generators", a.Period, b.Period)
	}
	if a.Due(0) != 0 || b.Due(0) != 2*time.Millisecond {
		t.Errorf("phases %v %v, want 0 and 2ms so the arrivals interleave", a.Due(0), b.Due(0))
	}
	if got := a.Due(250); got != time.Second {
		t.Errorf("op 250 due at %v, want 1s: the plan does not drift", got)
	}
	// A stall delays nothing in the plan: the op after a late one is still
	// due on the grid, and its own lateness is what the stall cost it.
	if got := Lateness(a.Due(10), a.Due(10)+150*time.Millisecond); got != 150*time.Millisecond {
		t.Errorf("lateness = %v, want 150ms", got)
	}
	if got := Lateness(a.Due(10), a.Due(10)-time.Millisecond); got != 0 {
		t.Errorf("early send lateness = %v, want 0", got)
	}
}

func TestFaultPlan(t *testing.T) {
	sec := time.Second
	stops, downtime := faultPlan(2*sec, 4)
	if want := []time.Duration{sec / 2, 5 * sec / 2, 9 * sec / 2, 13 * sec / 2}; !reflect.DeepEqual(stops, want) || downtime != sec {
		t.Errorf("plan = %v down %v, want %v down 1s", stops, downtime, want)
	}
	for i, at := range stops {
		// Stop and restart both fall inside slice i, clear of its edges.
		lo, hi := time.Duration(i)*2*sec, time.Duration(i+1)*2*sec
		if at <= lo || at+downtime >= hi {
			t.Errorf("cycle %d (%v..%v) leaves slice %v..%v", i, at, at+downtime, lo, hi)
		}
	}
	now := time.Now()
	faults := []time.Time{now}
	if !nearFault(now.Add(duplicateGrace), faults, duplicateGrace) || nearFault(now.Add(duplicateGrace+1), faults, duplicateGrace) || nearFault(now.Add(-1), faults, duplicateGrace) {
		t.Error("nearFault window is not [fault, fault+grace]")
	}
}

func TestAllocAndCPUDeltas(t *testing.T) {
	before := AllocSnapshot{Mallocs: 1000, Bytes: 50_000, GCCPU: 1, TotalCPU: 10}
	after := AllocSnapshot{Mallocs: 4000, Bytes: 350_000, GCCPU: 1.5, TotalCPU: 20}
	d := after.Sub(before, 100)
	if d.AllocsPerOp != 30 || d.BytesPerOp != 3000 || d.GCCPUFrac != 0.05 {
		t.Errorf("delta = %+v, want 30 allocs, 3000 B, 5%% GC", d)
	}
	if z := after.Sub(before, 0); z.AllocsPerOp != 0 || z.BytesPerOp != 0 {
		t.Errorf("zero ops must not divide: %+v", z)
	}
	c0 := CPUSeconds()
	x := 0
	for i := 0; i < 20_000_000; i++ {
		x += i
	}
	_ = x
	if c1 := CPUSeconds(); c1 < c0 || c0 <= 0 {
		t.Errorf("CPUSeconds went from %v to %v", c0, c1)
	}
	if PeakRSSMiB() < 1 {
		t.Errorf("PeakRSSMiB = %v", PeakRSSMiB())
	}
	runtime.GC() // the runtime refreshes its CPU classes at each collection
	live := ReadAlloc()
	if live.Mallocs == 0 || live.TotalCPU <= 0 {
		t.Errorf("ReadAlloc = %+v", live)
	}
}

func TestSpansAndDurations(t *testing.T) {
	origin := time.Now()
	tr := NewTracer(origin)
	lane := tr.Track("client 0")
	root := lane.Add("op", 1, 0, origin.Add(time.Millisecond), origin.Add(5*time.Millisecond))
	lane.Add("client.request", 1, root, origin.Add(time.Millisecond), origin.Add(3*time.Millisecond))
	lane.Add("client.request", 2, root, origin.Add(10*time.Millisecond), origin.Add(11*time.Millisecond))
	spans := tr.Spans()
	if len(spans) != 3 || spans[1].Parent != root || spans[1].Op != 1 {
		t.Fatalf("spans = %+v", spans)
	}
	if got := Durations(spans, "client.request", 0, 5*time.Millisecond); !reflect.DeepEqual(got, []int64{int64(2 * time.Millisecond)}) {
		t.Errorf("durations in [0,5ms) = %v", got)
	}
	var off *Tracer
	if lane := off.Track("x"); lane.On() || lane.Add("op", 1, 0, origin, origin) != 0 {
		t.Error("an untraced run must record nothing")
	}
	path := t.TempDir() + "/trace.json"
	if err := tr.WriteChromeTrace(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 { // one lane name + three spans
		t.Errorf("trace file has %d events, want 4", len(doc.TraceEvents))
	}
}

func TestEchoConnChecksEveryResponse(t *testing.T) {
	viol := &violations{}
	c := newEchoConn("test", 10, nil, viol)
	c.sent = 11 // request 11 is outstanding
	c.handler(0, loadgen.EchoResp{Seq: 11})
	if len(viol.list()) != 0 || len(c.done) != 1 {
		t.Fatalf("matching echo rejected: %v", viol.list())
	}
	<-c.done
	c.handler(0, loadgen.EchoResp{Seq: 11})
	c.handler(0, loadgen.EchoResp{Seq: 12})
	c.handler(0, vod.ChunkResp{})
	got := strings.Join(viol.list(), "\n")
	for _, want := range []string{"duplicate response for Seq 11", "Seq 12 was never sent", "unexpected response type"} {
		if !strings.Contains(got, want) {
			t.Errorf("violations %q lack %q", got, want)
		}
	}
}

func TestViolationsMergeKeepsTheCount(t *testing.T) {
	run, seg := &violations{}, &violations{}
	run.add("first")
	for i := 0; i < 25; i++ {
		seg.add("v%d", i)
	}
	run.merge(seg)
	got := run.list()
	if len(got) != 21 || got[0] != "first" || got[1] != "v0" || got[20] != "... and 6 more" {
		t.Errorf("merged violations = %q", got)
	}
}

func TestPullerChecksChunks(t *testing.T) {
	store, err := (&titleCache{}).get(1)
	if err != nil {
		t.Fatal(err)
	}
	man := store.Manifest()
	if man.TotalChunks() != streamChunks {
		t.Fatalf("title has %d chunks, want %d", man.TotalChunks(), streamChunks)
	}
	viol := &violations{}
	p := &puller{name: "test", viol: viol, done: make(chan struct{}, 1), man: man}
	p.from, p.open = 8, true
	chunk := func(i int) vod.ChunkResp {
		c, err := store.Chunk(man.At(i))
		if err != nil {
			t.Fatal(err)
		}
		return vod.ChunkResp{Chunk: c}
	}
	for i := 8; i < 8+streamPull; i++ {
		p.handler(0, chunk(i))
	}
	if len(viol.list()) != 0 || len(p.done) != 1 {
		t.Fatalf("clean pull rejected: %v", viol.list())
	}
	p.handler(0, chunk(9)) // a repeat of a received chunk: counted, legal
	if p.dupChunks != 1 || len(viol.list()) != 0 {
		t.Errorf("repeat chunk: dup=%d violations=%v", p.dupChunks, viol.list())
	}
	p.handler(0, chunk(20)) // not in the pull at all
	bad := chunk(8)
	bad.Chunk.Data = append([]byte(nil), bad.Chunk.Data...)
	bad.Chunk.Data[0] ^= 1
	p.handler(0, bad)
	got := strings.Join(viol.list(), "\n")
	for _, want := range []string{"out of position", "failed its CRC"} {
		if !strings.Contains(got, want) {
			t.Errorf("violations %q lack %q", got, want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code naming the same
// workloads and metrics.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, Workloads) {
		t.Errorf("workloads %v, code has %v", names, Workloads)
	}
	names = nil
	for _, m := range doc.EndToEnd {
		names = append(names, m.Name)
	}
	if !reflect.DeepEqual(names, EndToEndNames) {
		t.Errorf("end_to_end %v, code has %v", names, EndToEndNames)
	}
	if len(doc.PerLayer) != len(PerLayer) {
		t.Fatalf("per_layer has %d metrics, code has %d", len(doc.PerLayer), len(PerLayer))
	}
	for i, m := range doc.PerLayer {
		if m.Name != PerLayer[i].name || m.Unit != PerLayer[i].unit {
			t.Errorf("per_layer[%d] = %v, code has %v", i, m, PerLayer[i])
		}
	}
	if doc.RunSeconds%Segments != 0 {
		t.Errorf("run_seconds %d does not cut into %d whole-second slices", doc.RunSeconds, Segments)
	}
}

// TestSmoke runs all four workloads for a second each with every check on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run skipped in -short mode")
	}
	var out strings.Builder
	err := Smoke(&out)
	t.Log(out.String())
	if err != nil {
		t.Fatal(err)
	}
}
