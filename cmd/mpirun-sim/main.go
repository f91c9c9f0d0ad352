// Command mpirun-sim launches an NPB proxy benchmark on the simulated
// cluster — the moral equivalent of mpirun on the paper's testbed.
//
// Examples:
//
//	mpirun-sim -np 16 CG A
//	mpirun-sim -np 8 -device bvia -conn static-p2p IS B
//	mpirun-sim -np 16 -conn ondemand -wait spinwait MG C
//	mpirun-sim -np 16 -memprofile mem.out SP W   # go tool pprof -sample_index=alloc_objects mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"viampi/internal/mpi"
	"viampi/internal/npb"
	"viampi/internal/obs"
	"viampi/internal/obs/capture"
	"viampi/internal/simnet"
	"viampi/internal/via"
)

func main() {
	var (
		np     = flag.Int("np", 8, "number of processes")
		device = flag.String("device", "clan", "clan | bvia | ib")
		conn   = flag.String("conn", "ondemand", "static-cs | static-p2p | ondemand")
		wait   = flag.String("wait", "polling", "polling | spinwait")
		seed   = flag.Int64("seed", 1, "simulation seed")
		record = flag.String("record", "", "write the full event stream as a capture bundle to `file` (replay with viampi-replay)")
		cpuOut = flag.String("cpuprofile", "", "write a CPU profile of the run to `file` (go tool pprof)")
		memOut = flag.String("memprofile", "", "write a profile of every allocation the run makes to `file` (go tool pprof)")
	)
	// -matrix -profile -metrics -phases -trace: the same folds, flags and
	// renderer viampi-replay applies to a recorded bundle.
	var reports obs.Reports
	reports.Flags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: mpirun-sim [flags] <benchmark> <class>")
		fmt.Fprintln(os.Stderr, "benchmarks: CG MG IS EP SP BT FT LU; classes: S W A B C")
		os.Exit(2)
	}
	kern, err := npb.ByName(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	class, err := npb.ParseClass(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	wm := via.WaitPoll
	if *wait == "spinwait" {
		wm = via.WaitSpin
	}
	cfg := mpi.Config{
		Procs:    *np,
		Device:   *device,
		Policy:   *conn,
		WaitMode: wm,
		Seed:     *seed,
		Deadline: 8 * 3600 * simnet.Second,
	}
	if reports.Any() || *record != "" {
		cfg.Obs = obs.NewBus()
		reports.Attach(cfg.Obs, *np)
	}
	var cw *capture.Writer
	var cf *os.File
	if *record != "" {
		var err error
		if cf, err = os.Create(*record); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cw, err = capture.NewWriter(cf, capture.Header{
			Clock:  capture.ClockVirtual,
			World:  *np,
			Seed:   *seed,
			Device: *device,
			Policy: *conn,
			Label:  flag.Arg(0) + "." + flag.Arg(1),
			Config: fmt.Sprintf("bench=%s class=%s np=%d device=%s conn=%s wait=%s seed=%d",
				flag.Arg(0), flag.Arg(1), *np, *device, *conn, *wait, *seed),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cw.Attach(cfg.Obs)
	}
	stop, err := profile(*cpuOut, *memOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, w, err := npb.Run(kern, class, cfg)
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s.%c on %d procs (%s, %s, %s)\n", res.Name, res.Class, res.Procs, *device, *conn, *wait)
	fmt.Printf("  benchmark time     : %.3f s (virtual)\n", res.TimeSec)
	fmt.Printf("  verified           : %v\n", res.Verified)
	fmt.Printf("  MPI_Init (avg)     : %.3f ms\n", w.AvgInit().Seconds()*1e3)
	fmt.Printf("  VIs/process (avg)  : %.2f\n", w.AvgVIs())
	fmt.Printf("  VI utilization     : %.2f\n", w.AvgUtilization())
	fmt.Printf("  pinned memory total: %.1f kB\n", float64(w.TotalPinnedPeak())/1024)
	if err := reports.Render(os.Stdout, true); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if cw != nil {
		err := cw.Close()
		if cerr := cf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nrecorded %d events (%d bundle bytes) to %s\n", cw.Events(), cw.Bytes(), *record)
	}
}

// profile starts a CPU profile into cpuOut and, when memOut is set, records
// every allocation from here on (not one per 512 kB sampled, so counts are
// exact); the function it returns ends both and writes the files.
func profile(cpuOut, memOut string) (stop func() error, err error) {
	var cpu *os.File
	if cpuOut != "" {
		if cpu, err = os.Create(cpuOut); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	if memOut != "" {
		runtime.MemProfileRate = 1
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memOut == "" {
			return nil
		}
		f, err := os.Create(memOut)
		if err != nil {
			return err
		}
		// The profile is as of the last completed GC cycle: without one
		// here it can miss most of the run.
		runtime.GC()
		err = pprof.Lookup("allocs").WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}, nil
}
