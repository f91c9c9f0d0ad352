// Command viampi-replay re-renders, summarizes, and diffs capture bundles
// recorded with mpirun-sim -record (or dumped by the tcpvia flight
// recorder) — the offline half of the obs pipeline. Every report is a fold
// over the event stream and obs.Reports is the one place they are flagged,
// attached and rendered, so -matrix -profile -metrics -phases -trace print
// from a bundle exactly what mpirun-sim printed from the live run.
//
// Examples:
//
//	viampi-replay -summary run.bin
//	viampi-replay -trace trace.json run.bin
//	viampi-replay -matrix -profile -metrics -phases run.bin
//	viampi-replay -csv metrics.csv -json metrics.json run.bin
//	viampi-replay -diff a.bin b.bin
//	viampi-replay -diff -j4 a1.bin b1.bin a2.bin b2.bin   # batch: diff pairs
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"viampi/internal/obs"
	"viampi/internal/obs/capture"
	"viampi/internal/sweep"
)

func main() {
	var (
		summary = flag.Bool("summary", false, "print the bundle header and per-kind event counts")
		csvTo   = flag.String("csv", "", "write the metrics registry as CSV to `file`")
		jsonTo  = flag.String("json", "", "write the metrics registry as JSON to `file`")
		diff    = flag.Bool("diff", false, "compare bundle pairs: first structural divergence and per-kind deltas")
		jobsN   = flag.Int("j", 0, "worker pool size for batch -diff (0 = GOMAXPROCS); output is byte-identical at every -j")
		quiet   = flag.Bool("q", false, "suppress the progress/ETA line")
	)
	var reports obs.Reports
	reports.Flags(flag.CommandLine)
	flag.Parse()

	if *diff {
		if flag.NArg() < 2 || flag.NArg()%2 != 0 {
			fmt.Fprintln(os.Stderr, "usage: viampi-replay -diff a.bin b.bin [a2.bin b2.bin ...]")
			os.Exit(2)
		}
		// Each pair loads and diffs on a worker; reports print in argument
		// order, so batch output is byte-identical at every -j.
		type pairReport struct {
			text      []byte
			identical bool
		}
		npairs := flag.NArg() / 2
		jobs := make([]sweep.Job[pairReport], npairs)
		for i := 0; i < npairs; i++ {
			pa, pb := flag.Arg(2*i), flag.Arg(2*i+1)
			jobs[i] = sweep.Job[pairReport]{
				ID: pa + " vs " + pb,
				Run: func() (pairReport, error) {
					a, err := loadBundle(pa)
					if err != nil {
						return pairReport{}, err
					}
					b, err := loadBundle(pb)
					if err != nil {
						return pairReport{}, err
					}
					d := capture.Diff(a, b)
					var buf bytes.Buffer
					if err := d.WriteText(&buf); err != nil {
						return pairReport{}, err
					}
					return pairReport{text: buf.Bytes(), identical: d.Identical()}, nil
				},
			}
		}
		reports, err := sweep.Values(sweep.Run(sweep.Options{
			Workers: *jobsN, Progress: sweep.Stderr(*quiet), Label: "replay/diff"}, jobs))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		allSame := true
		for i, r := range reports {
			if npairs > 1 {
				fmt.Printf("== %s ==\n", jobs[i].ID)
			}
			os.Stdout.Write(r.text)
			allSame = allSame && r.identical
		}
		if !allSame {
			os.Exit(1) // differing runs exit nonzero, like diff(1)
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: viampi-replay [flags] bundle.bin")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if !*summary && !reports.Any() && *csvTo == "" && *jsonTo == "" {
		*summary = true // bare invocation: show what the bundle is
	}
	b := readBundle(flag.Arg(0))

	if *summary {
		writeSummary(os.Stdout, b)
	}

	// Feed the bundle through the folds a live run attaches; each report is
	// then byte-identical to what the run produced.
	bus := obs.NewBus()
	reports.Attach(bus, b.Header.World)
	var reg *obs.Registry
	if *csvTo != "" || *jsonTo != "" {
		reg = obs.NewRegistry()
		obs.NewCollector(reg).Attach(bus)
	}
	b.EmitAll(bus)

	if err := reports.Render(os.Stdout, *summary); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *csvTo != "" {
		toFile(*csvTo, func(f *os.File) error { reg.WriteCSV(f); return nil })
	}
	if *jsonTo != "" {
		toFile(*jsonTo, func(f *os.File) error { reg.WriteJSON(f); return nil })
	}
}

func readBundle(path string) *capture.Bundle {
	b, err := loadBundle(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return b
}

// loadBundle reads one capture bundle, returning errors instead of exiting
// so it can run on sweep workers.
func loadBundle(path string) (*capture.Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := capture.ReadBundle(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return b, nil
}

func toFile(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// writeSummary prints the header and a per-kind census — the quick "what is
// this file" view.
func writeSummary(f *os.File, b *capture.Bundle) {
	h := b.Header
	fmt.Fprintf(f, "bundle: version=%d clock=%s digest=%s\n", h.Version, h.Clock, h.Digest())
	fmt.Fprintf(f, "run   : world=%d seed=%d device=%s policy=%s label=%q\n", h.World, h.Seed, h.Device, h.Policy, h.Label)
	if h.Config != "" {
		fmt.Fprintf(f, "config: %s\n", h.Config)
	}
	var counts [capture.NumKinds + 1]int64
	var span int64
	for _, e := range b.Events {
		counts[e.Kind]++
		if e.T > span {
			span = e.T
		}
	}
	fmt.Fprintf(f, "events: %d spanning %d ns (%s time)\n", len(b.Events), span, h.Clock)
	for k := 1; k <= capture.NumKinds; k++ {
		if counts[k] > 0 {
			fmt.Fprintf(f, "  %-16s %10d\n", obs.Kind(k).String(), counts[k])
		}
	}
}
