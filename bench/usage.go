package bench

import (
	"runtime"
	"runtime/metrics"
	"syscall"
)

// CPUSeconds is the process's user+system CPU time so far.
func CPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// PeakRSSMiB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func PeakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// AllocSnapshot is the allocator and collector state at one instant.
type AllocSnapshot struct {
	Mallocs  uint64  // heap objects allocated so far
	Bytes    uint64  // heap bytes allocated so far
	GCCPU    float64 // CPU seconds the collector has used
	TotalCPU float64 // CPU seconds available to the process so far
	// Resident is the memory the runtime holds from the operating system:
	// everything it mapped minus what it has given back.
	Resident uint64
}

// ReadAlloc snapshots the allocator. It stops the world briefly, so the
// runner calls it only at the window's edges.
func ReadAlloc() AllocSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := AllocSnapshot{Mallocs: ms.Mallocs, Bytes: ms.TotalAlloc}
	allocSamples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(allocSamples)
	if total, released := allocSamples[2].Value, allocSamples[3].Value; total.Kind() == metrics.KindUint64 && released.Kind() == metrics.KindUint64 {
		s.Resident = total.Uint64() - released.Uint64()
	}
	if v := allocSamples[0].Value; v.Kind() == metrics.KindFloat64 {
		s.GCCPU = v.Float64()
	}
	if v := allocSamples[1].Value; v.Kind() == metrics.KindFloat64 {
		s.TotalCPU = v.Float64()
	}
	return s
}

// AllocDelta is the allocator work between two snapshots, per operation.
type AllocDelta struct {
	AllocsPerOp float64
	BytesPerOp  float64
	// GCCPUFrac is collector CPU over the CPU the process could have used.
	GCCPUFrac float64
}

// Sub returns the per-operation cost of the interval from earlier to s.
func (s AllocSnapshot) Sub(earlier AllocSnapshot, ops int) AllocDelta {
	var d AllocDelta
	if ops > 0 {
		d.AllocsPerOp = float64(s.Mallocs-earlier.Mallocs) / float64(ops)
		d.BytesPerOp = float64(s.Bytes-earlier.Bytes) / float64(ops)
	}
	if total := s.TotalCPU - earlier.TotalCPU; total > 0 {
		d.GCCPUFrac = (s.GCCPU - earlier.GCCPU) / total
	}
	return d
}
