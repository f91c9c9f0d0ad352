// Command microbench runs ad-hoc microbenchmarks on the simulated cluster:
// point-to-point latency and bandwidth, barrier and allreduce latency, and
// MPI_Init time, under any device × connection-policy × wait-mode triple.
//
// Examples:
//
//	microbench -op latency -device clan -policy ondemand -size 4
//	microbench -op barrier -device bvia -procs 8 -policy static-p2p
//	microbench -op init -procs 32 -policy static-cs
package main

import (
	"flag"
	"fmt"
	"os"

	"viampi/internal/bench"
	"viampi/internal/via"
)

func main() {
	var (
		op     = flag.String("op", "latency", "latency | bandwidth | barrier | allreduce | init")
		device = flag.String("device", "clan", "clan | bvia | ib")
		policy = flag.String("policy", "ondemand", "static-cs | static-p2p | ondemand")
		wait   = flag.String("wait", "polling", "polling | spinwait")
		procs  = flag.Int("procs", 8, "process count (collectives, init)")
		size   = flag.Int("size", 4, "message size in bytes")
		iters  = flag.Int("iters", 100, "iterations")
		extra  = flag.Int("extravis", 0, "extra idle VIs per port (Figure 1 style)")
		seed   = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()

	mech := bench.Mechanism{Name: *policy + "-" + *wait, Policy: *policy, Wait: via.WaitPoll}
	if *wait == "spinwait" {
		mech.Wait = via.WaitSpin
	}

	fail := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	switch *op {
	case "latency":
		l, err := bench.Pingpong(*device, mech, *size, *iters, *extra, *seed)
		fail(err)
		fmt.Printf("one-way latency %d B on %s/%s: %.2f us\n", *size, *device, mech.Name, l.Micros())
	case "bandwidth":
		bw, err := bench.Bandwidth(*device, mech, *size, *iters, *seed)
		fail(err)
		fmt.Printf("bandwidth %d B on %s/%s: %.2f MB/s\n", *size, *device, mech.Name, bw)
	case "barrier":
		l, err := bench.CollectiveLatency(*device, mech, *procs, *iters, bench.BarrierOp, *seed)
		fail(err)
		fmt.Printf("barrier on %d procs, %s/%s: %.2f us\n", *procs, *device, mech.Name, l.Micros())
	case "allreduce":
		l, err := bench.CollectiveLatency(*device, mech, *procs, *iters, bench.AllreduceOp(*size), *seed)
		fail(err)
		fmt.Printf("allreduce %d B on %d procs, %s/%s: %.2f us\n", *size, *procs, *device, mech.Name, l.Micros())
	case "init":
		d, err := bench.InitTime(*device, mech, *procs, *seed)
		fail(err)
		fmt.Printf("MPI_Init on %d procs, %s/%s: %.3f ms\n", *procs, *device, mech.Name, d.Seconds()*1e3)
	default:
		fmt.Fprintf(os.Stderr, "unknown -op %q\n", *op)
		os.Exit(2)
	}
}
