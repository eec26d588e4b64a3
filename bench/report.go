package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// The run shapes. The measured time comes from the command line;
// everything else is fixed here so every run of a commit, and every commit,
// is measured the same way.
const (
	Segments     = 10              // fresh set-ups per untraced run, one slice each
	Warmup       = time.Second     // per segment
	TracedSlice  = 2 * time.Second // the traced run is one segment of up to four slices
	TracedSlices = 4
	TracedWarmup = 2 * time.Second
	RefSlice     = time.Second // untraced reference inside a traced pass: three slices
	RefSlices    = 3
	smokeWarmup  = 300 * time.Millisecond
)

// Measure is the untraced pass: the only source of end-to-end numbers. The
// measured time is cut into Segments slices, each on a set-up of its own.
func Measure(workload string, seed int64, measured time.Duration) (*Result, error) {
	return Run(Options{Workload: workload, Seed: seed, Segments: Segments, Slices: 1,
		Slice: measured / Segments, Warmup: Warmup})
}

// Trace is the traced pass: a short untraced reference run, the traced
// run with Obs on and bench-side spans, and the isolated layer probes,
// folded into the per-layer ledger. The spans go to a Chrome trace-event
// file under outDir.
func Trace(workload string, seed int64, measured time.Duration, outDir string) (*Result, error) {
	slices := int(measured / TracedSlice)
	if slices > TracedSlices {
		slices = TracedSlices
	}
	if slices < 1 {
		slices = 1
	}
	ref, err := Run(Options{Workload: workload, Seed: seed, Segments: 1, Slices: RefSlices, Slice: RefSlice, Warmup: Warmup})
	if err != nil {
		return nil, err
	}
	res, err := Run(Options{Workload: workload, Seed: seed, Segments: 1, Slices: slices, Slice: TracedSlice,
		Warmup: TracedWarmup, Traced: true})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	probes, err := RunProbes(outDir)
	if err != nil {
		return nil, err
	}
	Ledger(res, probes, ref.EndToEnd["throughput_ops"].Value)
	res.Violations = append(res.Violations, ref.Violations...)
	res.Correct = res.Correct && ref.Correct
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", workload, seed))
	if err := res.spans.WriteChromeTrace(path); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, fmt.Sprintf("bench spans written to %s (%d dropped beyond the lane capacity)", path, res.spans.Dropped()))
	// End-to-end numbers never come from a traced run.
	res.EndToEnd = nil
	return res, nil
}

// Smoke runs every workload for a second with all checks on; it is what
// `go test` uses to keep the benchmark itself working.
func Smoke(w io.Writer) error {
	for _, name := range Workloads {
		res, err := Run(Options{Workload: name, Seed: 1, Segments: 1, Slices: 1, Slice: time.Second, Warmup: smokeWarmup})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "smoke %-10s attempted=%d failed=%d throughput=%.0f/s p50=%.0fus\n", name, res.Attempted, res.Failed,
			res.EndToEnd["throughput_ops"].Value, res.EndToEnd["latency_p50_us"].Value)
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("smoke %s: %d failed ops, violations %v", name, res.Failed, res.Violations)
		}
	}
	return nil
}

// contractLine is the last line of standard output: the object the
// benchmark driver parses.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Print writes the human-readable report and, last, the driver's JSON
// line: the end-to-end metrics of an untraced result, the per-layer
// metrics of a traced one.
func (r *Result) Print(w io.Writer) error {
	m := r.Meta
	fmt.Fprintf(w, "habench workload=%s seed=%d traced=%t commit=%s go=%s nproc=%d gomaxprocs=%d clients=%d segments=%d slices=%dx%gs measured=%gs warmup=%gs/segment wall=%.1fs\n",
		m.Workload, m.Seed, m.Traced, m.Commit, m.GoVersion, m.NProc, m.GOMAXPROCS, m.Clients,
		m.Segments, m.Slices, m.SliceS, m.WindowS, m.WarmupS, m.WallS)
	fmt.Fprintf(w, "ops attempted=%d failed=%d correct=%t\n", r.Attempted, r.Failed, r.Correct)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "VIOLATION %s\n", v)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	gated := r.EndToEnd
	if m.Traced {
		gated = r.PerLayer
	}
	line := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]contractMetric, len(gated))}
	for _, section := range []struct {
		title   string
		metrics map[string]Metric
	}{{"end-to-end", r.EndToEnd}, {"per-layer", r.PerLayer}, {"diagnostic (never gated)", r.Diagnostics}} {
		if len(section.metrics) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s:\n", section.title)
		for _, name := range sortedKeys(section.metrics) {
			x := section.metrics[name]
			fmt.Fprintf(w, "  %-42s %16.4f %-6s", name, x.Value, x.Unit)
			if x.Samples > 0 {
				fmt.Fprintf(w, " n=%d", x.Samples)
			}
			fmt.Fprintln(w)
		}
	}
	for name, x := range gated {
		line.Metrics[name] = contractMetric{Value: x.Value, Unit: x.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// WriteFile stores the whole result, settings included, under outDir.
func (r *Result) WriteFile(outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if r.Meta.Traced {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Meta.Workload, r.Meta.Seed, trace)
	return os.WriteFile(filepath.Join(outDir, name), append(b, '\n'), 0o644)
}
