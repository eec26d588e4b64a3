// Command haload is the framework's load generator: it drives a
// configurable session mix from a fleet of concurrent clients, measures
// throughput, sub-bucket-resolution latency quantiles, errors, and
// per-server skew, and writes the machine-readable BENCH_loadgen.json.
//
// Against an in-process cluster (capacity measurement on one machine):
//
//	haload -clusters memnet -servers 3 -clients 64 -duration 10s
//
// Against a running hanode deployment over TCP (start the nodes with
// -service echo so requests are answered individually):
//
//	hanode -id 1 -listen 127.0.0.1:7001 -peers ... -service echo &
//	hanode -id 2 -listen 127.0.0.1:7002 -peers ... -service echo &
//	hanode -id 3 -listen 127.0.0.1:7003 -peers ... -service echo &
//	haload -clusters tcpnet -addrs 1=127.0.0.1:7001,2=127.0.0.1:7002,3=127.0.0.1:7003 -clients 64
//
// Workload shape: -arrival closed (think-time loop, the default) or
// -arrival open (Poisson, fixed offered rate); -zipf concentrates
// sessions on hot units; -session-len and -req-bytes accept exponential
// jitter via -len-dist exp / -size-dist exp (capped at -req-bytes-max).
//
// -workload stream switches to the chunked streaming workload: -clients
// players pull Zipf-sampled titles through windowed GetChunk sessions and
// the run reports stall/rebuffer distributions to BENCH_stream.json. A
// memnet target serves synthetic titles shaped by -bitrate,
// -seg-duration, -chunk-bytes, -media-duration; a tcpnet target needs the
// hanode deployment started with -service vod.
//
// -check exits non-zero if any request errored (or, for stream, any
// playback failed to complete) — the CI smoke mode.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"hafw/internal/cluster"
	"hafw/internal/ids"
	"hafw/internal/loadgen"
	"hafw/internal/media"
	"hafw/internal/transport/memnet"
)

func main() {
	var (
		clusters = flag.String("clusters", "memnet", "target kind: memnet (in-process cluster) or tcpnet (existing hanode deployment)")
		servers  = flag.Int("servers", 3, "memnet: cluster size (R = this)")
		backups  = flag.Int("backups", 1, "memnet: per-session backups (the paper's B)")
		prop     = flag.Duration("propagation", 50*time.Millisecond, "memnet: context propagation period (the paper's T)")
		units    = flag.Int("units", 4, "memnet: content units served")
		latency  = flag.Duration("net-latency", 0, "memnet: simulated one-way network latency")
		addrs    = flag.String("addrs", "", "tcpnet: comma-separated id=host:port server list")

		workload = flag.String("workload", "echo", "workload kind: echo (request/response) or stream (chunked playback)")
		clients  = flag.Int("clients", 16, "driver client fleet size (stream: player count)")
		duration = flag.Duration("duration", 10*time.Second, "echo: measurement window")
		seed     = flag.Int64("seed", 1, "workload randomness seed")

		arrival  = flag.String("arrival", "closed", "echo: arrival process: closed (think-time) or open (Poisson)")
		rate     = flag.Float64("rate", 0, "echo open: total offered load, requests/second across the fleet (0 = 200/s per client)")
		think    = flag.Duration("think", 2*time.Millisecond, "echo closed: mean think time between requests")
		sessLen  = flag.Int("session-len", 100, "echo: mean requests per session")
		lenDist  = flag.String("len-dist", "fixed", "echo: session length distribution: fixed or exp")
		reqBytes = flag.Int("req-bytes", 64, "echo: mean request padding bytes")
		reqMax   = flag.Int("req-bytes-max", 0, "echo: exponential size-draw cap, bytes (0 = 8x mean)")
		sizeDist = flag.String("size-dist", "fixed", "echo: request size distribution: fixed or exp")
		zipf     = flag.Float64("zipf", 0, "Zipf unit-popularity exponent (>1 = hot-spotting, 0 = uniform)")
		timeout  = flag.Duration("req-timeout", 5*time.Second, "echo: per-request response timeout / session drain grace")

		playbacks   = flag.Int("playbacks", 1, "stream: playbacks per player")
		window      = flag.Int("window", 16, "stream: pull window in chunks")
		speed       = flag.Float64("speed", 1, "stream: playback-speed multiplier")
		pullTimeout = flag.Duration("pull-timeout", 500*time.Millisecond, "stream: no-progress re-pull interval")
		maxWall     = flag.Duration("max-wall", 60*time.Second, "stream: wall-time budget per playback")
		bitrate     = flag.Int("bitrate", 1_000_000, "stream memnet: synthetic title bitrate, bytes/second")
		segDur      = flag.Duration("seg-duration", time.Second, "stream memnet: segment duration")
		chunkB      = flag.Int("chunk-bytes", 64<<10, "stream memnet: chunk size in bytes")
		mediaDur    = flag.Duration("media-duration", 10*time.Second, "stream memnet: title duration")

		out   = flag.String("out", "", "result file path (default BENCH_loadgen.json / BENCH_stream.json; \"none\" = don't write)")
		check = flag.Bool("check", false, "exit non-zero if any request errored (CI smoke mode)")
	)
	flag.Parse()
	if *out == "" {
		if *workload == "stream" {
			*out = "BENCH_stream.json"
		} else {
			*out = "BENCH_loadgen.json"
		}
	} else if *out == "none" {
		*out = ""
	}

	if *workload != "echo" && *workload != "stream" {
		log.Fatalf("unknown -workload %q (want echo or stream)", *workload)
	}
	spec := media.Spec{
		Duration:        *mediaDur,
		SegmentDuration: *segDur,
		BitrateBps:      *bitrate,
		ChunkBytes:      *chunkB,
	}

	var target loadgen.Target
	switch *clusters {
	case "memnet":
		log.Printf("bringing up in-process cluster: %d servers, B=%d, T=%v, %d units",
			*servers, *backups, *prop, *units)
		ccfg := cluster.Config{
			Servers:     *servers,
			Backups:     *backups,
			Propagation: *prop,
			Units:       *units,
			Net:         memnet.Config{Latency: *latency},
		}
		if *workload == "stream" {
			ccfg.Service = loadgen.StreamService(spec)
		}
		c, err := cluster.New(cluster.Memnet, ccfg)
		if err != nil {
			log.Fatalf("memnet target: %v", err)
		}
		target = c
	case "tcpnet":
		if *addrs == "" {
			log.Fatal("-clusters tcpnet requires -addrs")
		}
		book, world, err := parseAddrs(*addrs)
		if err != nil {
			log.Fatalf("bad -addrs: %v", err)
		}
		tt, err := loadgen.NewTCPTarget(loadgen.TCPConfig{Addrs: book, World: world})
		if err != nil {
			log.Fatalf("tcpnet target: %v", err)
		}
		target = tt
	default:
		log.Fatalf("unknown -clusters %q (want memnet or tcpnet)", *clusters)
	}
	defer target.Close()

	if *workload == "stream" {
		log.Printf("streaming: %d players x %d playbacks (window=%d speed=%.1fx)",
			*clients, *playbacks, *window, *speed)
		res, err := loadgen.RunStream(loadgen.StreamConfig{
			Target:      target,
			Players:     *clients,
			Playbacks:   *playbacks,
			ZipfS:       *zipf,
			Window:      *window,
			Speed:       *speed,
			PullTimeout: *pullTimeout,
			MaxWall:     *maxWall,
			Seed:        *seed,
		})
		if err != nil {
			log.Fatalf("run: %v", err)
		}
		fmt.Print(res.Summary())
		if *out != "" {
			if err := res.WriteJSON(*out); err != nil {
				log.Fatalf("write %s: %v", *out, err)
			}
			log.Printf("wrote %s", *out)
		}
		if *check && (res.Errors.Total > 0 || res.Totals.Completed < res.Totals.Playbacks || res.Totals.CRCErrors > 0) {
			log.Printf("FAIL: %d error(s), %d/%d playbacks completed, %d CRC error(s)",
				res.Errors.Total, res.Totals.Completed, res.Totals.Playbacks, res.Totals.CRCErrors)
			os.Exit(1)
		}
		return
	}

	w := loadgen.Workload{
		Arrival:        loadgen.Arrival(*arrival),
		Think:          *think,
		SessionLen:     *sessLen,
		SessionLenDist: loadgen.Dist(*lenDist),
		ReqBytes:       *reqBytes,
		ReqBytesMax:    *reqMax,
		ReqBytesDist:   loadgen.Dist(*sizeDist),
		ZipfS:          *zipf,
		ReqTimeout:     *timeout,
	}
	if *rate > 0 {
		w.RatePerClient = *rate / float64(*clients)
	}

	log.Printf("driving %d clients for %v (%s arrival)", *clients, *duration, w.Arrival)
	res, err := loadgen.Run(loadgen.Config{
		Target:   target,
		Clients:  *clients,
		Duration: *duration,
		Workload: w,
		Seed:     *seed,
	})
	if err != nil {
		log.Fatalf("run: %v", err)
	}

	fmt.Print(res.Summary())
	if *out != "" {
		if err := res.WriteJSON(*out); err != nil {
			log.Fatalf("write %s: %v", *out, err)
		}
		log.Printf("wrote %s", *out)
	}
	if *check && res.Errors.Total > 0 {
		log.Printf("FAIL: %d request error(s)", res.Errors.Total)
		os.Exit(1)
	}
}

// parseAddrs parses "1=host:port,2=host:port" into an address book and a
// world list.
func parseAddrs(s string) (map[ids.EndpointID]string, []ids.ProcessID, error) {
	book := make(map[ids.EndpointID]string)
	var world []ids.ProcessID
	start := 0
	for i := 0; i <= len(s); i++ {
		if i != len(s) && s[i] != ',' {
			continue
		}
		part := s[start:i]
		start = i + 1
		if part == "" {
			continue
		}
		eq := -1
		for j := range part {
			if part[j] == '=' {
				eq = j
				break
			}
		}
		if eq <= 0 || eq == len(part)-1 {
			return nil, nil, fmt.Errorf("entry %q (want id=host:port)", part)
		}
		pid, err := strconv.ParseUint(part[:eq], 10, 64)
		if err != nil || pid == 0 {
			return nil, nil, fmt.Errorf("entry %q: bad id", part)
		}
		book[ids.ProcessEndpoint(ids.ProcessID(pid))] = part[eq+1:]
		world = append(world, ids.ProcessID(pid))
	}
	if len(world) == 0 {
		return nil, nil, fmt.Errorf("no servers parsed")
	}
	return book, world, nil
}
