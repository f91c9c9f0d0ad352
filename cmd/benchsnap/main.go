// Command benchsnap captures a microbenchmark snapshot of the simulated
// stack as JSON: ping-pong latency across the eager/rendezvous switch,
// streaming bandwidth, and MPI_Init time for the paper's mechanisms. The
// simulation is a pure function of its Config, so for a fixed seed the
// snapshot is byte-stable — the committed BENCH_micro.json is a regression
// anchor, and `-smoke` is the fast subset `make check` runs.
//
// With -simcore it instead snapshots the scheduler core itself: fixed-shape
// workloads from internal/bench timed against the host clock. There the
// event counts and virtual times are deterministic; the wall_ns and
// events_per_wall_sec fields are machine-dependent by nature and marked so
// in the output (BENCH_simcore.json is a record of one host, not a diff
// anchor).
//
// Usage:
//
//	benchsnap -out BENCH_micro.json        # full snapshot (committed)
//	benchsnap -smoke                       # tiny subset to stdout, seconds
//	benchsnap -simcore -out BENCH_simcore.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"viampi/internal/bench"
	"viampi/internal/sweep"
)

func main() {
	var (
		out     = flag.String("out", "", "output file (default stdout)")
		smoke   = flag.Bool("smoke", false, "tiny subset (smoke test for make check)")
		seed    = flag.Int64("seed", 1, "simulation seed")
		simcore = flag.Bool("simcore", false, "scheduler-core wall-clock snapshot instead of the micro snapshot")
		jobs    = flag.Int("j", 0, "worker pool size for the snapshot grids (0 = GOMAXPROCS); output is byte-identical at every -j")
		quiet   = flag.Bool("q", false, "suppress the progress/ETA line")
	)
	flag.Parse()
	progress := sweep.Stderr(*quiet)

	sizes := []int{8, 1024, 4096, 16384}
	ppIters, bwIters := 50, 100
	if *smoke {
		sizes = []int{8, 16384}
		ppIters, bwIters = 4, 8
	}
	mechs := []bench.Mechanism{bench.StaticPolling, bench.OnDemand}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}()
		w = f
	}

	fail := func(section string, err error) {
		fmt.Fprintf(os.Stderr, "benchsnap: %s: %v\n", section, err)
		os.Exit(1)
	}

	if *simcore {
		if err := simcoreSnapshot(w, *smoke); err != nil {
			fail("simcore", err)
		}
		return
	}

	fmt.Fprintf(w, "{\n  \"device\": \"clan\",\n  \"seed\": %d,\n  \"smoke\": %v,\n", *seed, *smoke)

	// Each snapshot section is an indexed job list rendering its own JSON
	// line; the batch runner's index-ordered merge keeps the file
	// byte-identical at every -j.
	run := func(section string, js []sweep.Job[string]) []string {
		lines, err := sweep.Values(sweep.Run(sweep.Options{
			Workers: *jobs, Progress: progress, Label: "benchsnap/" + section}, js))
		if err != nil {
			fail(section, err)
		}
		return lines
	}

	var ppJobs []sweep.Job[string]
	for _, mech := range mechs {
		for _, size := range sizes {
			mech, size := mech, size
			ppJobs = append(ppJobs, sweep.Job[string]{
				ID: fmt.Sprintf("pingpong/%s/%dB", mech.Name, size),
				Run: func() (string, error) {
					lat, err := bench.Pingpong("clan", mech, size, ppIters, 0, *seed)
					if err != nil {
						return "", err
					}
					return fmt.Sprintf("    {\"mech\": %q, \"bytes\": %d, \"ns\": %d}", mech.Name, size, int64(lat)), nil
				},
			})
		}
	}
	fmt.Fprintf(w, "  \"pingpong_one_way_ns\": [\n%s\n  ],\n", strings.Join(run("pingpong", ppJobs), ",\n"))

	var bwJobs []sweep.Job[string]
	for _, mech := range mechs {
		mech := mech
		bwJobs = append(bwJobs, sweep.Job[string]{
			ID: "bandwidth/" + mech.Name,
			Run: func() (string, error) {
				mbps, err := bench.Bandwidth("clan", mech, 16384, bwIters, *seed)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("    {\"mech\": %q, \"bytes\": 16384, \"mbps\": %.3f}", mech.Name, mbps), nil
			},
		})
	}
	fmt.Fprintf(w, "  \"bandwidth_mbps\": [\n%s\n  ],\n", strings.Join(run("bandwidth", bwJobs), ",\n"))

	procs := []int{8, 16}
	if *smoke {
		procs = []int{4}
	}
	var initJobs []sweep.Job[string]
	for _, mech := range mechs {
		for _, np := range procs {
			mech, np := mech, np
			initJobs = append(initJobs, sweep.Job[string]{
				ID: fmt.Sprintf("init/%s/np=%d", mech.Name, np),
				Run: func() (string, error) {
					d, err := bench.InitTime("clan", mech, np, *seed)
					if err != nil {
						return "", err
					}
					return fmt.Sprintf("    {\"mech\": %q, \"np\": %d, \"ns\": %d}", mech.Name, np, int64(d)), nil
				},
			})
		}
	}
	fmt.Fprintf(w, "  \"init_avg_ns\": [\n%s\n  ],\n", strings.Join(run("init", initJobs), ",\n"))

	if err := captureOverhead(w, *seed); err != nil {
		fail("capture-overhead", err)
	}
	fmt.Fprint(w, "}\n")
}

// captureOverhead times the CG replay with the obs bus counting events
// versus encoding them through a capture.Writer — the recording tax. The
// events / virtual_ns / bundle_bytes fields are deterministic; wall_ns,
// ns_per_event, and overhead_pct are machine-dependent (same convention as
// BENCH_simcore.json) and recorded as one host's measurement, not a diff
// anchor.
func captureOverhead(w io.Writer, seed int64) error {
	fmt.Fprint(w, "  \"capture_overhead_note\": \"events, virtual_ns, bundle_bytes, bytes_per_event are deterministic; wall_ns, ns_per_event, overhead_pct are machine-dependent\",\n")
	fmt.Fprint(w, "  \"capture_overhead\": [\n")
	// Interleaved best-of-N: the workload's wall time is goroutine-scheduler
	// noisy at the millisecond scale, so alternating the two variants and
	// keeping each one's minimum isolates the encoder's tax from drift.
	const reps = 9
	results := [2]bench.CaptureResult{}
	walls := [2]time.Duration{}
	for _, record := range []bool{false, true} { // warm-up both variants
		if _, err := bench.CaptureWorkload(record, seed); err != nil {
			return err
		}
	}
	for rep := 0; rep < reps; rep++ {
		for i, record := range []bool{false, true} {
			start := time.Now()
			r, err := bench.CaptureWorkload(record, seed)
			if err != nil {
				return err
			}
			if d := time.Since(start); rep == 0 || d < walls[i] {
				results[i], walls[i] = r, d
			}
		}
	}
	var base float64 // ns/event with recording off
	for i, record := range []bool{false, true} {
		res, wall := results[i], walls[i]
		perEvent := float64(wall.Nanoseconds()) / float64(res.Events)
		if i > 0 {
			fmt.Fprint(w, ",\n")
		}
		fmt.Fprintf(w, "    {\"name\": %q, \"recording\": %v, \"events\": %d, \"virtual_ns\": %d, \"wall_ns\": %d, \"ns_per_event\": %.1f",
			res.Name, record, res.Events, res.VirtualNS, wall.Nanoseconds(), perEvent)
		if record {
			fmt.Fprintf(w, ", \"bundle_bytes\": %d, \"bytes_per_event\": %.2f, \"overhead_pct\": %.1f",
				res.BundleBytes, float64(res.BundleBytes)/float64(res.Events), (perEvent/base-1)*100)
		} else {
			base = perEvent
		}
		fmt.Fprint(w, "}")
	}
	fmt.Fprint(w, "\n  ]\n")
	return nil
}

// simcoreWorkloads returns the fixed shapes timed by -simcore. The
// iteration counts are constants (not wall-time targeted) so the
// deterministic fields — events and virtual_ns — are identical on every
// host and every run. Smoke mode shrinks every shape 100× to prove the rail
// end-to-end in milliseconds.
func simcoreWorkloads(smoke bool) []func() (bench.SimCoreResult, error) {
	scale := 1
	bootOD, bootStatic := 1024, 256
	if smoke {
		scale = 100
		bootOD, bootStatic = 64, 16
	}
	return []func() (bench.SimCoreResult, error){
		func() (bench.SimCoreResult, error) { return bench.SimCoreSleepCycle(1, 2_000_000/scale) },
		func() (bench.SimCoreResult, error) { return bench.SimCoreSleepCycle(8, 250_000/scale) },
		func() (bench.SimCoreResult, error) { return bench.SimCoreParkWake(1_000_000 / scale) },
		func() (bench.SimCoreResult, error) { return bench.SimCoreEventChurn(2_000_000 / scale) },
		// Init-cost rail: boot-only MPI worlds (empty main). The on-demand
		// boot must stay O(procs) events; the static boot carries the dense
		// mesh's full connection storm for contrast.
		func() (bench.SimCoreResult, error) { return bench.InitBoot(bench.OnDemand, bootOD) },
		func() (bench.SimCoreResult, error) { return bench.InitBoot(bench.StaticPolling, bootStatic) },
	}
}

// seedBaseline records BenchmarkSimCore on the pre-rewrite scheduler
// (container/heap + *event + per-call closures), measured on the same host
// class the committed BENCH_simcore.json was generated on. It is embedded so
// the before/after ratio survives in one file.
const seedBaseline = `{
    "scheduler": "container/heap + []*event + closure timers",
    "benchmark": "BenchmarkSimCore",
    "ns_per_op": 487.5,
    "events_per_wall_sec": 2051421,
    "allocs_per_op": 2
  }`

// simcoreSnapshot times each workload against the host clock after one
// untimed warm-up run. Deterministic fields come straight from the workload
// result; wall fields carry a machine_dependent marker in the schema note.
func simcoreSnapshot(w io.Writer, smoke bool) error {
	fmt.Fprint(w, "{\n")
	fmt.Fprint(w, "  \"note\": \"events and virtual_ns are deterministic; wall_ns and events_per_wall_sec are machine-dependent\",\n")
	fmt.Fprint(w, "  \"workloads\": [\n")
	for i, wl := range simcoreWorkloads(smoke) {
		if _, err := wl(); err != nil { // warm-up
			return err
		}
		start := time.Now()
		res, err := wl()
		if err != nil {
			return err
		}
		wall := time.Since(start)
		if i > 0 {
			fmt.Fprint(w, ",\n")
		}
		perSec := float64(res.Events) / wall.Seconds()
		fmt.Fprintf(w, "    {\"name\": %q, \"events\": %d, \"virtual_ns\": %d, \"wall_ns\": %d, \"events_per_wall_sec\": %.0f}",
			res.Name, res.Events, res.VirtualNS, wall.Nanoseconds(), perSec)
	}
	fmt.Fprint(w, "\n  ],\n")
	if err := sweepWallClock(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "  \"seed_baseline\": %s\n}\n", seedBaseline)
	return nil
}

// sweepWallClock is the SweepWallClock rail: it times the quick ext-init
// grid through the batch runner at j=1 and j=GOMAXPROCS and reports both
// wall times and their ratio. The rail measures the *runner's* parallel
// speedup, not ext-init's absolute cost, so the quick grid (which the full
// grid's cells merely scale up) carries the signal while keeping snapshot
// regeneration in seconds — the full grid reaches 4096-rank worlds and
// would add tens of minutes per run. Both runs render identical tables
// (internal/bench's merge-determinism test asserts this); only the wall
// fields differ, and they are machine-dependent like every wall figure in
// this file. On a single-core host the two runs coincide and the speedup
// sits at ~1.0; on an N-core host the grid's independent cells should push
// it toward min(N, cells on the critical row).
func sweepWallClock(w io.Writer) error {
	maxJ := runtime.GOMAXPROCS(0)
	opt := bench.Options{Quick: true, Seed: 1}
	var walls [2]time.Duration
	for i, j := range []int{1, maxJ} {
		opt.Workers = j
		start := time.Now()
		if _, err := bench.ExtInit(opt); err != nil {
			return err
		}
		walls[i] = time.Since(start)
	}
	fmt.Fprintf(w, "  \"sweep_wall_clock\": {\"suite\": \"ext-init\", \"quick\": true, \"cores\": %d, \"gomaxprocs\": %d, \"wall_ns_j1\": %d, \"wall_ns_jmax\": %d, \"speedup\": %.2f},\n",
		runtime.NumCPU(), maxJ, walls[0].Nanoseconds(), walls[1].Nanoseconds(),
		float64(walls[0])/float64(walls[1]))
	return nil
}
