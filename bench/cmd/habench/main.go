// Command habench runs one workload of the hafw benchmark and prints its
// metrics; the last line of its standard output is the JSON object the
// benchmark driver reads. See ../../README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"hafw/bench"
)

func main() {
	workload := flag.String("workload", "", "workload to run: echo3, churn3, failover3 or stream3tcp")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "length of the measured window, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", ".bench_build/out", "directory for result files and Chrome traces")
	smoke := flag.Bool("smoke", false, "run every workload for a second with all checks on, then exit")
	flag.Parse()

	// A run takes half a minute. One still going after two and a half has
	// hung somewhere in the system under test; say where and give up, rather
	// than hold the caller past its own deadline.
	time.AfterFunc(150*time.Second, func() {
		fmt.Fprintln(os.Stderr, "habench: still running after 150 s; goroutines:")
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		os.Exit(2)
	})

	if *smoke {
		if err := bench.Smoke(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "habench: -seconds must be at least 1 and there are no positional arguments")
		os.Exit(2)
	}
	window := time.Duration(*seconds) * time.Second
	var res *bench.Result
	var err error
	if *trace == 1 {
		res, err = bench.Trace(*workload, *seed, window, *out)
	} else {
		res, err = bench.Measure(*workload, *seed, window)
	}
	if err == nil {
		err = res.WriteFile(*out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := res.Print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
