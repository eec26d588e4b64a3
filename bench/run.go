package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// Options configure one run of one workload.
//
// A run is a sequence of segments. Each segment sets the workload up from
// nothing — a fresh cluster, fresh clients, fresh sessions — warms it, and
// measures Slices slices of length Slice. How fast one instance of the
// cluster runs is partly luck (which goroutines share a processor, where
// its memory landed), and the luck lasts as long as the instance does: ten
// instances measured for two seconds each spread half as wide, run to run,
// as one instance measured for twenty. Every segment's set-up is timed, so
// setup_s is a median over the segments as well.
type Options struct {
	Workload string
	Seed     int64
	Segments int
	Slices   int           // per segment
	Slice    time.Duration // length of one slice
	// Warmup runs each segment's workload before its window; the samples
	// are dropped.
	Warmup time.Duration
	// Traced turns Obs on in the cluster and records bench-side spans.
	Traced bool
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations the value summarizes.
	Samples int `json:"samples,omitempty"`
}

// Meta says how a result was produced, so two result files can be
// compared without guessing the settings.
type Meta struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Traced     bool    `json:"traced"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Segments   int     `json:"segments"`
	Slices     int     `json:"slices"` // over all segments
	SliceS     float64 `json:"slice_s"`
	WindowS    float64 `json:"window_s"` // measured time over all segments
	WarmupS    float64 `json:"warmup_s"` // per segment
	WallS      float64 `json:"wall_s"`
}

// Result is everything one run measured.
type Result struct {
	Meta       Meta     `json:"meta"`
	Correct    bool     `json:"correct"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Violations []string `json:"violations,omitempty"`
	// Notes are facts about the run that are not numbers.
	Notes    []string          `json:"notes,omitempty"`
	EndToEnd map[string]Metric `json:"end_to_end,omitempty"`
	PerLayer map[string]Metric `json:"per_layer,omitempty"`
	// Diagnostics are printed but never gated: the pooled-window tail and
	// the per-slice values behind each median.
	Diagnostics map[string]Metric    `json:"diagnostics,omitempty"`
	SliceValues map[string][]float64 `json:"slice_values,omitempty"`

	spans  *Tracer
	ledger ledgerFacts
}

// ledgerFacts are the raw measurements the per-layer ledger divides,
// summed over the segments.
type ledgerFacts struct {
	ops        int // correct operations inside the windows
	allOps     int // operations recorded at all, warm-up included
	alloc      AllocDelta
	goroutines int
	throughput float64
	cpuPerOp   float64            // process CPU µs per correct op, slice median
	views      uint64             // content-group views installed inside the windows
	windows    [][2]time.Duration // each window's place on the tracer's timeline
	before     counters
	after      counters
	extras     extras
}

// commit is the VCS revision stamped into the binary, if any.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// setupRetrying sets the workload up, starting over when the cluster does
// not form. About one bring-up in a few hundred wedges, on memnet and on
// TCP alike, with three servers that never agree on a view; that is the
// system's to fix, and a run sets up too often to lose itself to it. The
// time of a wedged attempt stays in the set-up sample.
func setupRetrying(workload string, e env, wedged *int) (instance, error) {
	for attempt := 1; ; attempt++ {
		inst, err := setup(workload, e)
		if err == nil || attempt == 3 {
			return inst, err
		}
		*wedged++
	}
}

// maxRedone is how many segments of a run may be measured again (about one
// failover3 segment in a hundred asks for it).
const maxRedone = 3

// segment is what one set-up instance contributed.
type segment struct {
	slices   []SliceStats
	pooled   []int64 // sorted latencies of the correct ops inside the window
	resident uint64  // bytes the runtime held from the OS when the window closed
	redo     bool    // the instance asks for the segment to be measured again
}

// measure warms one set-up instance and measures its window. The sampler
// reads the clock and the CPU meter at every slice boundary; the
// boundaries as sampled, not as planned, delimit the slices.
func measure(inst instance, o Options, tracer *Tracer, facts *ledgerFacts) segment {
	start := time.Now()
	origin := start.Add(o.Warmup)
	stop := make(chan struct{})
	s := &session{origin: origin, window: time.Duration(o.Slices) * o.Slice, slice: o.Slice, stop: stop, tracer: tracer}
	for i := range s.recs {
		s.recs[i] = newRecorder(origin, 1<<17)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		inst.run(s)
	}()

	bounds := make([]int64, o.Slices+1)
	cpu := make([]float64, o.Slices+1)
	var before, after counters
	var alloc [2]AllocSnapshot
	for i := 0; i <= o.Slices; i++ {
		time.Sleep(time.Until(origin.Add(time.Duration(i) * o.Slice)))
		if i == 0 {
			before = inst.counters()
			alloc[0] = ReadAlloc()
		}
		bounds[i] = int64(time.Since(origin))
		cpu[i] = CPUSeconds()
		if n := runtime.NumGoroutine(); n > facts.goroutines {
			facts.goroutines = n
		}
	}
	alloc[1] = ReadAlloc()
	after = inst.counters()
	close(stop)
	wg.Wait()

	var samples []Sample
	for _, r := range s.recs {
		samples = append(samples, r.samples...)
	}
	seg := segment{
		slices:   CutSlices(samples, bounds, cpu),
		pooled:   PooledLatencies(samples, bounds[0], bounds[o.Slices]),
		resident: alloc[1].Resident,
	}
	facts.ops += len(seg.pooled)
	facts.allOps += len(samples)
	ex := inst.finish()
	seg.redo = ex.redo
	facts.extras.add(ex)
	facts.views += after.views - before.views
	if o.Traced { // one segment: the ledger reads its window directly
		facts.alloc = alloc[1].Sub(alloc[0], len(seg.pooled))
		facts.before, facts.after = before, after
		at := origin.Sub(tracer.origin)
		facts.windows = append(facts.windows, [2]time.Duration{at + time.Duration(bounds[0]), at + time.Duration(bounds[o.Slices])})
	}
	return seg
}

// Run measures the workload over o.Segments fresh set-ups and returns the
// end-to-end metrics. Per-layer metrics are added by Ledger on a traced
// result.
func Run(o Options) (*Result, error) {
	began := time.Now()
	viol := &violations{}
	var tracer *Tracer
	if o.Traced {
		tracer = NewTracer(began)
	}
	res := &Result{
		EndToEnd:    make(map[string]Metric),
		Diagnostics: make(map[string]Metric),
		SliceValues: make(map[string][]float64),
		spans:       tracer,
	}
	var slices []SliceStats
	var pooled []int64
	var setupS, residentMiB []float64
	wedged, redone := 0, 0
	title := &titleCache{}
	for seg := 0; seg < o.Segments; {
		// Every segment draws its own inputs from the run's seed.
		segViol := &violations{}
		e := env{runSeed: o.Seed, seed: o.Seed*1000 + int64(seg), traced: o.Traced, viol: segViol, title: title}
		t0 := time.Now()
		inst, err := setupRetrying(o.Workload, e, &wedged)
		if err != nil {
			return nil, fmt.Errorf("bench: set up %s: %w", o.Workload, err)
		}
		setupTook := time.Since(t0).Seconds()
		ledger := res.ledger
		m := measure(inst, o, tracer, &res.ledger)
		inst.close()
		// A failover3 segment that broke a check because a rejoin wedged or
		// the host stalled the process into a false suspicion is measured
		// again, as a set-up that does not form is started over: its ops and
		// its violations are dropped and the notes say what they were. Only
		// so many times: after that they count.
		if m.redo && redone < maxRedone {
			redone++
			for _, v := range segViol.list() {
				res.Notes = append(res.Notes, fmt.Sprintf("segment %d measured again: %s", seg, v))
			}
			res.Notes = append(res.Notes, res.ledger.extras.notes[len(ledger.extras.notes):]...) // what the attempt said of itself
			res.ledger = ledger
			continue
		}
		seg++
		viol.merge(segViol)
		setupS = append(setupS, setupTook)
		slices = append(slices, m.slices...)
		pooled = append(pooled, m.pooled...)
		residentMiB = append(residentMiB, float64(m.resident)/(1<<20))
	}

	res.Meta = Meta{
		Workload: o.Workload, Seed: o.Seed, Traced: o.Traced,
		Commit: commit(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: Clients,
		Segments: o.Segments, Slices: len(slices), SliceS: o.Slice.Seconds(),
		WindowS: (time.Duration(len(slices)) * o.Slice).Seconds(), WarmupS: o.Warmup.Seconds(),
	}
	for _, sl := range slices {
		res.Attempted += sl.Ops + sl.Failed
		res.Failed += sl.Failed
	}
	ops := res.Attempted - res.Failed
	ex := res.ledger.extras
	if res.Attempted == 0 {
		viol.add("no operation was attempted inside the window")
	}
	if ex.drops != 0 {
		viol.add("%d envelopes were dropped by loss or full queues", ex.drops)
	}

	// perSlice reports the median over the slices of one per-slice quantity
	// and keeps the values behind it.
	perSlice := func(into map[string]Metric, name, unit string, f func(SliceStats) float64) {
		vs := make([]float64, len(slices))
		for i, sl := range slices {
			vs[i] = f(sl)
		}
		into[name] = Metric{Value: Median(vs), Unit: unit, Samples: ops}
		res.SliceValues[name] = vs
	}
	res.EndToEnd["setup_s"] = Metric{Value: Median(setupS), Unit: "s", Samples: len(setupS)}
	res.SliceValues["setup_s"] = setupS
	perSlice(res.EndToEnd, "throughput_ops", "1/s", SliceStats.Throughput)
	perSlice(res.EndToEnd, "latency_p50_us", "us", func(s SliceStats) float64 { return float64(s.P50) / 1e3 })
	perSlice(res.EndToEnd, "latency_p99_us", "us", func(s SliceStats) float64 { return float64(s.P99) / 1e3 })
	// CPU per operation is printed with every run but gated nowhere: on the
	// open-loop workload a quarter of it is the cost of waking idle
	// processors, which on a shared virtual machine sits at one of two
	// levels a third apart for minutes at a time (README, "Departures").
	perSlice(res.Diagnostics, "cpu_us_per_op", "us", SliceStats.CPUPerOp)
	res.ledger.cpuPerOp = res.Diagnostics["cpu_us_per_op"].Value
	res.EndToEnd["peak_rss_mib"] = Metric{Value: Median(residentMiB), Unit: "MiB", Samples: len(residentMiB)}
	res.SliceValues["peak_rss_mib"] = residentMiB
	res.Diagnostics["process_maxrss_mib"] = Metric{Value: PeakRSSMiB(), Unit: "MiB", Samples: 1}
	res.ledger.throughput = res.EndToEnd["throughput_ops"].Value

	// The tail of all windows pooled: the highest percentile with at least
	// ten samples beyond it. Printed, never gated.
	sort.Slice(pooled, func(a, b int) bool { return pooled[a] < pooled[b] })
	q := TailPercentile(len(pooled))
	res.Diagnostics["latency_tail_us"] = Metric{Value: float64(Percentile(pooled, q)) / 1e3, Unit: "us", Samples: len(pooled)}
	res.Diagnostics["latency_tail_percentile"] = Metric{Value: q * 100, Unit: "%", Samples: len(pooled)}
	minBeyond := 0
	for i, sl := range slices {
		if beyond := sl.Ops - int(float64(sl.Ops)*0.99); i == 0 || beyond < minBeyond {
			minBeyond = beyond
		}
	}
	res.Diagnostics["latency_p99_min_samples_beyond"] = Metric{Value: float64(minBeyond), Unit: "count", Samples: len(slices)}
	// Views installed inside the windows: zero unless a fault was injected
	// (or a peer was falsely suspected, which spoils a fault-free run).
	res.Diagnostics["content_views_in_windows"] = Metric{Value: float64(res.ledger.views), Unit: "count"}

	res.Notes = append(res.Notes, ex.notes...)
	if wedged > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d set-up attempts did not form a cluster and were started over", wedged))
	}
	for i, cyc := range ex.faults {
		note := fmt.Sprintf("fault cycle %d: stopped and restarted %v", i, cyc.victim)
		if o.Traced {
			note += fmt.Sprintf(": excluded %.1f ms, promoted %.1f ms, first response %.1f ms, rejoined %.1f ms",
				cyc.excludeMS, cyc.promoteMS, cyc.firstResponseMS, cyc.rejoinMS)
		}
		res.Notes = append(res.Notes, note)
	}
	res.Violations = viol.list()
	res.Correct = len(res.Violations) == 0
	res.Meta.WallS = time.Since(began).Seconds()
	return res, nil
}
