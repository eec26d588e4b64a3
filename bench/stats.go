// Package bench is the repository's benchmark: four long workloads over
// in-process clusters, end-to-end metrics reported as medians of window
// slices, and a traced mode that fills an outside-in per-layer ledger.
// Everything here reaches the system only through its public constructors
// and counters; see README.md for the metric and workload tables.
package bench

import (
	"math"
	"sort"
)

// Percentile returns the exact q-quantile (0 ≤ q ≤ 1) of sorted by the
// nearest-rank rule: the smallest element with at least q·n elements at or
// below it. No interpolation and no buckets, so a 1 % change in the
// population moves the answer by 1 %, not by a histogram step.
func Percentile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9)) // 0.99·1000 is 990, not 990.0000000000001
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// Median returns the middle of vs (the mean of the two middle values for
// an even count). It sorts a copy.
func Median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// TailPercentile picks the highest of the usual tail quantiles that still
// has at least ten samples beyond it in a population of n, so the reported
// tail is a measurement and not the luck of a handful of ops.
func TailPercentile(n int) float64 {
	for _, den := range []int{10000, 1000, 100, 10} {
		rank := (n*(den-1) + den - 1) / den // ceil(n·(den-1)/den), in integers
		if n-rank >= 10 {
			return float64(den-1) / float64(den)
		}
	}
	return 0.5
}

// Sample is one finished operation. At is nanoseconds from the window
// origin (negative during warm-up): the completion time in a closed loop,
// the due time in an open loop. Lat is the latency in nanoseconds; a
// failed operation carries Lat < 0.
type Sample struct {
	At  int64
	Lat int64
}

// SliceStats is what one window slice contributes to the run's medians.
type SliceStats struct {
	Ops      int     // operations completed correctly
	Failed   int     // operations that failed
	Seconds  float64 // slice length as sampled
	P50, P99 int64   // exact latency percentiles of the correct ops, ns
	CPU      float64 // process CPU seconds spent in the slice
}

// Throughput is correct operations per second.
func (s SliceStats) Throughput() float64 {
	if s.Seconds <= 0 {
		return 0
	}
	return float64(s.Ops) / s.Seconds
}

// CPUPerOp is process CPU microseconds per correct operation.
func (s SliceStats) CPUPerOp() float64 {
	if s.Ops == 0 {
		return 0
	}
	return s.CPU * 1e6 / float64(s.Ops)
}

// CutSlices distributes samples over the slices delimited by bounds
// (len(bounds) = slices+1, nanoseconds from the window origin, ascending)
// and returns per-slice statistics. cpu holds the process CPU seconds read
// at each bound. Samples outside [bounds[0], bounds[last]) are ignored —
// that is how warm-up and drain are discarded.
func CutSlices(samples []Sample, bounds []int64, cpu []float64) []SliceStats {
	n := len(bounds) - 1
	if n < 1 {
		return nil
	}
	lats := make([][]int64, n)
	out := make([]SliceStats, n)
	for _, s := range samples {
		if s.At < bounds[0] || s.At >= bounds[n] {
			continue
		}
		i := sort.Search(n, func(i int) bool { return bounds[i+1] > s.At })
		if s.Lat < 0 {
			out[i].Failed++
			continue
		}
		lats[i] = append(lats[i], s.Lat)
	}
	for i := range out {
		sort.Slice(lats[i], func(a, b int) bool { return lats[i][a] < lats[i][b] })
		out[i].Ops = len(lats[i])
		out[i].Seconds = float64(bounds[i+1]-bounds[i]) / 1e9
		out[i].P50 = Percentile(lats[i], 0.50)
		out[i].P99 = Percentile(lats[i], 0.99)
		if len(cpu) == len(bounds) {
			out[i].CPU = cpu[i+1] - cpu[i]
		}
	}
	return out
}

// PooledLatencies returns the sorted latencies of every correct op inside
// the window, for the ungated whole-window tail.
func PooledLatencies(samples []Sample, from, to int64) []int64 {
	var out []int64
	for _, s := range samples {
		if s.At >= from && s.At < to && s.Lat >= 0 {
			out = append(out, s.Lat)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
