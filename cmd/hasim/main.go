// Command hasim runs the deterministic cluster simulator: a seeded,
// virtual-clock discrete-event harness that plays a chaos schedule
// (crashes, restarts, partitions, clock skew, churn) against a full
// in-process cluster and audits the paper's invariants — no lost acked
// requests within the configured tolerance, a single primary per session
// per view, and monotone context frontiers.
//
// Every random choice derives from -seed, so a failing run replays
// exactly: re-invoking hasim with the same seed, schedule, and topology
// reproduces the same virtual-time fault trace and the same verdict.
// Five virtual minutes of a 50-node cluster complete in well under a real
// minute.
//
// Usage:
//
//	hasim -seed 7 -nodes 50                  # built-in churn schedule
//	hasim -seed 7 -nodes 50 -chaos churn.json
//	hasim -seed 7 -nodes 5 -backups 0 -wal=false -shrink
//
// The -shrink flag matters when a run fails: it delta-debugs the injected
// event list, re-running the simulation on sublists until no single event
// can be removed without losing the failure, and prints the minimal
// reproducing schedule.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hafw/internal/sim"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "PRNG seed driving chaos expansion, network jitter, and workload pacing")
		nodes    = flag.Int("nodes", 5, "server count")
		clients  = flag.Int("clients", 0, "client session count (0 = nodes/2)")
		backups  = flag.Int("backups", 1, "backups per session group (the paper's B)")
		prop     = flag.Duration("propagation", 0, "context propagation period (the paper's T; 0 = 2s)")
		virtual  = flag.Duration("virtual", 5*time.Minute, "virtual duration of the run")
		wal      = flag.Bool("wal", true, "durable unit databases (warm restart recovers from disk)")
		loss     = flag.Float64("loss", 0, "random message-loss probability")
		chaos    = flag.String("chaos", "", "chaos schedule JSON (empty = built-in bounded churn)")
		shrink   = flag.Bool("shrink", false, "on failure, delta-debug the event list to a minimal reproducer")
		probes   = flag.Int("shrink-probes", 64, "max extra simulation runs the shrinker may spend")
		events   = flag.Bool("events", false, "print the expanded fault trace before the verdict")
		dataDir  = flag.String("data", "", "WAL data directory (empty = temp dir, removed on exit)")
		fdEvery  = flag.Duration("fd-interval", 0, "failure-detector heartbeat interval (0 = 2s)")
		fdAfter  = flag.Duration("fd-timeout", 0, "failure-detector suspicion timeout (0 = 10s)")
		ackEvery = flag.Duration("ack-interval", 0, "stability ack interval (0 = 2s)")
	)
	flag.Parse()
	if err := run(*seed, *nodes, *clients, *backups, *prop, *virtual, *wal, *loss,
		*chaos, *shrink, *probes, *events, *dataDir, *fdEvery, *fdAfter, *ackEvery); err != nil {
		fmt.Fprintf(os.Stderr, "hasim: %v\n", err)
		os.Exit(2)
	}
}

// defaultSchedule is the built-in scenario: bounded churn that respects
// the configured backup count, so a correct framework must ride it out
// with zero invariant violations. With zero backups a single crash is
// already beyond tolerance; the schedule still crashes one server at a
// time so the run measures the beyond-tolerance loss the risk model
// prices instead of doing nothing.
func defaultSchedule(backups int) *sim.Schedule {
	maxDown := backups
	if maxDown < 1 {
		maxDown = 1
	}
	return &sim.Schedule{Entries: []sim.Entry{
		{Kind: sim.KindChurn, FromMS: 30_000, MTTFMS: 120_000, MTTRMS: 20_000, MaxDown: maxDown},
	}}
}

func run(seed int64, nodes, clients, backups int, prop, virtual time.Duration,
	wal bool, loss float64, chaosPath string, shrink bool, probes int,
	printEvents bool, dataDir string, fdEvery, fdAfter, ackEvery time.Duration) error {
	sched := defaultSchedule(backups)
	if chaosPath != "" {
		var err error
		if sched, err = sim.LoadSchedule(chaosPath); err != nil {
			return err
		}
	}
	if wal && dataDir == "" {
		tmp, err := os.MkdirTemp("", "hasim-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dataDir = tmp
	}
	cfg := sim.Config{
		Seed:        seed,
		Nodes:       nodes,
		Clients:     clients,
		Backups:     backups,
		Propagation: prop,
		Virtual:     virtual,
		WAL:         wal,
		DataDir:     dataDir,
		Loss:        loss,
		FDInterval:  fdEvery,
		FDTimeout:   fdAfter,
		AckInterval: ackEvery,
	}

	start := time.Now()
	rep, err := sim.Run(cfg, sched)
	if err != nil {
		return err
	}
	if printEvents {
		os.Stdout.Write(sim.Trace(rep.Config, sim.Expand(rep.Config, sched)))
	}
	printReport(rep, time.Since(start))
	if !rep.Failed() {
		return nil
	}
	if shrink {
		shrinkFailure(rep.Config, sched, probes)
	}
	os.Exit(1)
	return nil
}

func printReport(rep *sim.Report, wall time.Duration) {
	cfg := rep.Config
	fmt.Printf("hasim seed=%d nodes=%d clients=%d backups=%d T=%s wal=%v virtual=%s (%s real)\n",
		cfg.Seed, cfg.Nodes, cfg.Clients, cfg.Backups, cfg.Propagation, cfg.WAL, cfg.Virtual, wall.Round(time.Millisecond))
	fmt.Printf("chaos events injected: %d   invariant samples: %d\n", rep.Events, rep.Samples)
	fmt.Printf("workload: sent=%d acked=%d duplicates=%d\n", rep.Sent, rep.Acked, rep.Duplicates)
	fmt.Printf("losses: guaranteed=%d anomalous(partition)=%d beyond-tolerance=%d\n",
		rep.Lost, rep.LostAnomalous, rep.LostBeyondTolerance)
	if rep.Risk.MTTF > 0 {
		r := rep.Risk
		fmt.Printf("risk model (§4, MTTF=%s MTTR=%s): q=%.4g Ptotal-loss=%.4g Plost-update=%.4g E[dups]=%.4g\n",
			r.MTTF, r.MTTR, r.Q, r.PTotalLoss, r.PLostUpdate, r.ExpectedDuplicates)
	}
	fmt.Print(sim.FormatViolations(rep.Violations))
}

// shrinkFailure delta-debugs the failing run's event list: the property
// is "re-simulating this sublist still fails", so every probe is a full
// deterministic run from the same seed.
func shrinkFailure(cfg sim.Config, sched *sim.Schedule, probes int) {
	events := sim.Expand(cfg, sched)
	fmt.Printf("\nshrinking %d events (max %d probes)...\n", len(events), probes)
	minimal := sim.Shrink(events, func(sub []sim.Event) bool {
		probeCfg := cfg
		if probeCfg.WAL {
			tmp, err := os.MkdirTemp("", "hasim-shrink-*")
			if err != nil {
				return false
			}
			defer os.RemoveAll(tmp)
			probeCfg.DataDir = tmp
		}
		rep, err := sim.RunEvents(probeCfg, sub)
		return err == nil && rep.Failed()
	}, probes)
	fmt.Printf("minimal reproducing schedule (%d events):\n", len(minimal))
	os.Stdout.Write(sim.Trace(cfg, minimal))
}
