package bench

import "sort"

// EndToEndNames are the metrics every untraced run reports, in the order
// BENCHMARK.json lists them.
var EndToEndNames = []string{
	"setup_s", "throughput_ops", "latency_p50_us", "latency_p99_us", "peak_rss_mib",
}

// ledgerTypes are the wire types given their own line in the per-type
// envelope ledger; everything else is summed under "other". They are the
// types that exceed 0.05 envelopes per operation on some workload.
var ledgerTypes = []string{
	"vsync.ClientSend", "vsync.Resolve", "vsync.ResolveReply",
	"vsync.Data", "vsync.SeqData", "vsync.DataAck", "vsync.Ack", "vsync.Stable",
	"core.Response", "core.SessionStarted", "core.SessionEnded",
	"fd.Heartbeat",
}

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// PerLayer lists every per-layer metric a traced run reports, in ledger
// order. Every traced run prints all of them; one that does not apply to
// the workload (a fault span on a workload without faults, a memnet count
// on the TCP workload) reads 0.
var PerLayer = func() []layerMetric {
	ms := []layerMetric{
		{"client.resolves_per_op", "count"}, {"client.sends_per_op", "count"}, {"gcs.resolve_us", "us"},
		{"client.start_session_us", "us"}, {"client.request_us", "us"}, {"client.end_session_us", "us"},
		{"client.retries_per_op", "count"}, {"client.timeouts_per_op", "count"},
		{"failover.resends_per_op", "count"}, {"failover.duplicates_per_op", "count"},
		{"wire.encode_us.small", "us"}, {"wire.decode_us.small", "us"}, {"wire.clone_us.small", "us"},
		{"wire.allocs_per_roundtrip.small", "count"}, {"wire.bytes_per_envelope.small", "B"},
		{"wire.encode_us.chunk", "us"}, {"wire.decode_us.chunk", "us"},
		{"memnet.send_us", "us"}, {"memnet.allocs_per_send", "count"},
		{"memnet.msgs_per_op", "count"}, {"memnet.bytes_per_op", "B"}, {"memnet.drops", "count"},
		{"tcpnet.rtt_us.small", "us"}, {"tcpnet.mib_per_s.chunk", "MiB/s"}, {"tcpnet.allocs_per_send", "count"},
		{"transport.env_per_op.total", "count"}, {"transport.bytes_per_op.total", "B"},
	}
	for _, t := range ledgerTypes {
		ms = append(ms, layerMetric{"transport.env_per_op." + t, "count"})
	}
	return append(ms, []layerMetric{
		{"transport.env_per_op.other", "count"},
		{"gcs.multicast_us", "us"}, {"gcs.allocs_per_multicast", "count"}, {"gcs.join_us", "us"},
		{"unitdb.allocate_us", "us"}, {"unitdb.delta_merge_us", "us"},
		{"core.solo_us_per_req", "us"},
		{"core.viewchange_ms.membership", "ms"}, {"core.viewchange_ms.state_exchange", "ms"}, {"core.viewchange_ms.barrier", "ms"},
		{"failover.exclude_ms", "ms"}, {"failover.promote_ms", "ms"},
		{"failover.first_response_ms", "ms"}, {"failover.rejoin_ms", "ms"},
		{"store.append_us", "us"}, {"store.recover_ms", "ms"},
		{"media.read_chunk_us", "us"}, {"vod.dup_chunks_per_op", "count"},
		{"process.cpu_us_per_op", "us"},
		{"process.allocs_per_op", "count"}, {"process.alloc_bytes_per_op", "B"},
		{"process.gc_cpu_frac", "%"}, {"process.goroutines_peak", "count"},
		{"gen.late_p99_us", "us"}, {"trace.overhead_pct", "%"},
	}...)
}()

// Ledger fills res.PerLayer from a traced run: the deltas of the public
// counters over the window divided by the window's operations, the medians
// of the bench's own spans, the isolated probes, and the throughput of an
// untraced reference run for the tracing overhead.
func Ledger(res *Result, probes map[string]float64, untracedThroughput float64) {
	v := make(map[string]float64, len(PerLayer))
	for name, x := range probes {
		v[name] = x
	}
	w := res.ledger
	ex := w.extras
	ops := float64(w.ops)
	perOp := func(after, before uint64) float64 {
		if ops == 0 || after < before {
			return 0
		}
		return float64(after-before) / ops
	}
	c0, c1 := w.before, w.after

	v["client.resolves_per_op"] = perOp(c1.client.Reresolves, c0.client.Reresolves)
	v["client.sends_per_op"] = perOp(c1.client.Sends, c0.client.Sends)
	v["client.retries_per_op"] = perOp(c1.client.Retries, c0.client.Retries)
	v["client.timeouts_per_op"] = perOp(c1.client.Timeouts, c0.client.Timeouts)

	spans := res.spans.Spans()
	for name, span := range map[string]string{
		"client.start_session_us": "client.start_session",
		"client.request_us":       "client.request",
		"client.end_session_us":   "client.end_session",
	} {
		var ds []int64
		for _, win := range w.windows {
			ds = append(ds, Durations(spans, span, win[0], win[1])...)
		}
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		v[name] = float64(Percentile(ds, 0.5)) / 1e3
	}

	// The extras cover the whole run, warm-up included, so their per-op
	// rates divide by every op the run recorded, not the window's.
	if all := float64(w.allOps); all > 0 {
		v["failover.resends_per_op"] = float64(ex.resends) / all
		v["failover.duplicates_per_op"] = float64(ex.duplicates) / all
		v["vod.dup_chunks_per_op"] = float64(ex.dupChunks) / all
	}
	sort.Slice(ex.lateNS, func(a, b int) bool { return ex.lateNS[a] < ex.lateNS[b] })
	v["gen.late_p99_us"] = float64(Percentile(ex.lateNS, 0.99)) / 1e3
	cycle := func(f func(faultCycle) float64) float64 {
		vs := make([]float64, len(ex.faults))
		for i, c := range ex.faults {
			vs[i] = f(c)
		}
		return Median(vs)
	}
	v["failover.exclude_ms"] = cycle(func(c faultCycle) float64 { return c.excludeMS })
	v["failover.promote_ms"] = cycle(func(c faultCycle) float64 { return c.promoteMS })
	v["failover.first_response_ms"] = cycle(func(c faultCycle) float64 { return c.firstResponseMS })
	v["failover.rejoin_ms"] = cycle(func(c faultCycle) float64 { return c.rejoinMS })

	// The envelope ledger: what the servers' per-type transport counters
	// say crossed the wire in the window, per operation.
	var envTotal, bytesTotal, other float64
	listed := make(map[string]bool, len(ledgerTypes))
	for _, t := range ledgerTypes {
		listed[t] = true
	}
	for t, n := range c1.env {
		x := perOp(n, c0.env[t])
		envTotal += x
		bytesTotal += perOp(c1.envBytes[t], c0.envBytes[t])
		if listed[t] {
			v["transport.env_per_op."+t] = x
		} else {
			other += x
		}
	}
	v["transport.env_per_op.total"] = envTotal
	v["transport.env_per_op.other"] = other
	v["transport.bytes_per_op.total"] = bytesTotal
	// The in-memory network's own counters (all zero on the TCP workload).
	v["memnet.msgs_per_op"] = perOp(c1.netSent, c0.netSent)
	v["memnet.bytes_per_op"] = perOp(c1.netBytes, c0.netBytes)
	v["memnet.drops"] = float64(ex.drops)

	for _, phase := range viewChangePhases {
		if n := c1.vcCount[phase] - c0.vcCount[phase]; n > 0 {
			v["core.viewchange_ms."+phase] = (c1.vcSumNS[phase] - c0.vcSumNS[phase]) / float64(n) / 1e6
		}
	}

	v["process.cpu_us_per_op"] = w.cpuPerOp
	v["process.allocs_per_op"] = w.alloc.AllocsPerOp
	v["process.alloc_bytes_per_op"] = w.alloc.BytesPerOp
	v["process.gc_cpu_frac"] = w.alloc.GCCPUFrac * 100
	v["process.goroutines_peak"] = float64(w.goroutines)
	if untracedThroughput > 0 {
		v["trace.overhead_pct"] = (untracedThroughput - w.throughput) / untracedThroughput * 100
	}

	res.PerLayer = make(map[string]Metric, len(PerLayer))
	for _, m := range PerLayer {
		res.PerLayer[m.name] = Metric{Value: v[m.name], Unit: m.unit}
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
