package bench

import (
	"fmt"

	"viampi/internal/apps"
	"viampi/internal/mpi"
)

// Fig1 regenerates Figure 1: Berkeley VIA small-message latency as a
// function of the number of active (open, mostly idle) VIs per NIC.
func Fig1(opt Options) (*Table, error) {
	t := &Table{
		ID:      "fig1",
		Title:   "Latencies in BVIA as a function of the number of active VIs",
		Columns: []string{"active VIs", "4-byte latency (us)", "8-byte latency (us)"},
		Notes:   []string{"paper: latency rises with open VIs on BVIA (firmware doorbell scan); flat on cLAN"},
	}
	counts := []int{8, 16, 32, 64, 96, 128}
	iters := 50
	if opt.Quick {
		counts = []int{8, 32, 64}
		iters = 10
	}
	msgSizes := []int{4, 8}
	cells, err := gridCells(opt, "fig1", len(counts), len(msgSizes),
		func(r, c int) string { return cellID("fig1", "vis", counts[r], fmt.Sprintf("%dB", msgSizes[c])) },
		func(r, c int) (string, error) {
			extra := counts[r] - 1 // the pingpong channel itself is one VI
			l, err := Pingpong("bvia", StaticPolling, msgSizes[c], iters, extra, opt.Seed)
			if err != nil {
				return "", fmt.Errorf("fig1 vis=%d: %w", counts[r], err)
			}
			return fmtMicros(l), nil
		})
	if err != nil {
		return nil, err
	}
	for i, n := range counts {
		t.AddRow(append([]string{fmt.Sprint(n)}, cells[i]...)...)
	}
	return t, nil
}

// Table1 regenerates Table 1: average distinct destinations per process in
// the production applications.
func Table1(opt Options) (*Table, error) {
	t := &Table{
		ID:      "table1",
		Title:   "Average number of distinct destinations per process",
		Columns: []string{"app", "procs", "avg dests (ours)", "paper"},
	}
	paper := map[string]map[int]string{
		"sPPM":    {64: "5.5", 1024: "< 6"},
		"SMG2000": {64: "41.88", 1024: "< 1023"},
		"Sphot":   {64: "0.98", 1024: "< 1"},
		"Sweep3D": {64: "3.5", 1024: "< 4"},
		"SAMRAI":  {64: "4.94", 1024: "< 10"},
		"CG":      {64: "6.36", 1024: "< 11"},
	}
	sizes := []int{64, 1024}
	for _, p := range apps.All() {
		for _, n := range sizes {
			t.AddRow(p.Name, fmt.Sprint(n), fmtF(apps.AvgDests(p, n)), paper[p.Name][n])
		}
	}
	return t, nil
}

// sweepAxis is what a mechanism sweep varies down its rows: the column
// header, and the key in cell IDs and errors.
type sweepAxis struct{ header, key string }

var (
	axisBytes = sweepAxis{"bytes", "bytes"}
	axisProcs = sweepAxis{"procs", "np"}
)

// mechSweep is the shape Figures 2-5 and 8 share: one row per value of the
// axis, one column per mechanism, every cell its own simulated world.
func mechSweep(id, title string, axis sweepAxis, unit string, xs []int, mechs []Mechanism, opt Options,
	cell func(x int, mech Mechanism) (string, error)) (*Table, error) {
	cols := []string{axis.header}
	for _, m := range mechs {
		cols = append(cols, m.Name+" ("+unit+")")
	}
	t := &Table{ID: id, Title: title, Columns: cols}
	cells, err := gridCells(opt, id, len(xs), len(mechs),
		func(r, c int) string { return cellID(id, axis.key, xs[r], mechs[c].Name) },
		func(r, c int) (string, error) {
			s, err := cell(xs[r], mechs[c])
			if err != nil {
				return "", fmt.Errorf("%s %s=%d mech=%s: %w", id, axis.key, xs[r], mechs[c].Name, err)
			}
			return s, nil
		})
	if err != nil {
		return nil, err
	}
	for i, x := range xs {
		t.AddRow(append([]string{fmt.Sprint(x)}, cells[i]...)...)
	}
	return t, nil
}

// latencySweep is the Figure 2 series: one-way latency across message sizes.
func latencySweep(id, title, device string, mechs []Mechanism, opt Options) (*Table, error) {
	sizes := []int{4, 16, 64, 256, 1024, 4096, 8192, 16384}
	iters := 30
	if opt.Quick {
		sizes = []int{4, 1024, 16384}
		iters = 8
	}
	return mechSweep(id, title, axisBytes, "us", sizes, mechs, opt, func(size int, mech Mechanism) (string, error) {
		l, err := Pingpong(device, mech, size, iters, 0, opt.Seed)
		return fmtMicros(l), err
	})
}

// Fig2a regenerates Figure 2(a): latency on cLAN for static-polling,
// static-spinwait and on-demand.
func Fig2a(opt Options) (*Table, error) {
	return latencySweep("fig2a", "Latency of MVICH on cLAN VIA",
		"clan", []Mechanism{StaticPolling, StaticSpinwait, OnDemand}, opt)
}

// Fig2b regenerates Figure 2(b): latency on Berkeley VIA.
func Fig2b(opt Options) (*Table, error) {
	return latencySweep("fig2b", "Latency of MVICH on Berkeley VIA",
		"bvia", []Mechanism{StaticPolling, OnDemand}, opt)
}

// bandwidthSweep is the Figure 3 series.
func bandwidthSweep(id, title, device string, mechs []Mechanism, opt Options) (*Table, error) {
	sizes := []int{256, 1024, 4096, 4999, 5001, 8192, 16384, 65536, 262144}
	iters := 40
	if opt.Quick {
		sizes = []int{1024, 4999, 5001, 65536}
		iters = 10
	}
	t, err := mechSweep(id, title, axisBytes, "MB/s", sizes, mechs, opt, func(size int, mech Mechanism) (string, error) {
		bw, err := Bandwidth(device, mech, size, iters, opt.Seed)
		return fmtF(bw), err
	})
	if err == nil {
		t.Notes = []string{"the eager->rendezvous switch at 5000 bytes causes the jump the paper notes"}
	}
	return t, err
}

// Fig3a regenerates Figure 3(a): bandwidth on cLAN.
func Fig3a(opt Options) (*Table, error) {
	return bandwidthSweep("fig3a", "Bandwidth of MVICH on cLAN VIA",
		"clan", []Mechanism{StaticPolling, StaticSpinwait, OnDemand}, opt)
}

// Fig3b regenerates Figure 3(b): bandwidth on Berkeley VIA.
func Fig3b(opt Options) (*Table, error) {
	return bandwidthSweep("fig3b", "Bandwidth of MVICH on Berkeley VIA",
		"bvia", []Mechanism{StaticPolling, OnDemand}, opt)
}

// collectiveVsProcs is the Figure 4/5 series: collective latency across
// process counts.
func collectiveVsProcs(id, title, device string, mechs []Mechanism, procsList []int,
	op func(c *mpi.Comm, scratch []byte) error, opt Options) (*Table, error) {
	iters := 200
	if opt.Quick {
		iters = 20
	}
	return mechSweep(id, title, axisProcs, "us", procsList, mechs, opt, func(procs int, mech Mechanism) (string, error) {
		l, err := CollectiveLatency(device, mech, procs, iters, op, opt.Seed)
		return fmtMicros(l), err
	})
}

func clanProcsList(opt Options) []int {
	if opt.Quick {
		return []int{4, 8, 16}
	}
	return []int{2, 3, 4, 6, 8, 12, 16, 24, 32}
}

func bviaProcsList(opt Options) []int {
	if opt.Quick {
		return []int{4, 8}
	}
	return []int{2, 3, 4, 5, 6, 7, 8}
}

// Fig4a regenerates Figure 4(a): barrier latency on cLAN.
func Fig4a(opt Options) (*Table, error) {
	t, err := collectiveVsProcs("fig4a", "Latency of Barrier in MVICH on cLAN VIA", "clan",
		[]Mechanism{StaticPolling, StaticSpinwait, OnDemand}, clanProcsList(opt), BarrierOp, opt)
	if err == nil {
		t.Notes = append(t.Notes, "paper: on-demand == static-polling; spinwait much worse; non-power-of-2 fluctuation")
	}
	return t, err
}

// Fig4b regenerates Figure 4(b): barrier latency on Berkeley VIA.
func Fig4b(opt Options) (*Table, error) {
	t, err := collectiveVsProcs("fig4b", "Latency of Barrier in MVICH on Berkeley VIA", "bvia",
		[]Mechanism{StaticPolling, OnDemand}, bviaProcsList(opt), BarrierOp, opt)
	if err == nil {
		t.Notes = append(t.Notes, "paper: 8 procs, on-demand 161us vs static 196us (3 vs 7 VIs)")
	}
	return t, err
}

// Fig5a regenerates Figure 5(a): allreduce (MPI_SUM, llcbench-style) on cLAN.
func Fig5a(opt Options) (*Table, error) {
	return collectiveVsProcs("fig5a", "Allreduce Latency in MVICH on cLAN VIA", "clan",
		[]Mechanism{StaticPolling, StaticSpinwait, OnDemand}, clanProcsList(opt), AllreduceOp(64), opt)
}

// Fig5b regenerates Figure 5(b): allreduce on Berkeley VIA.
func Fig5b(opt Options) (*Table, error) {
	return collectiveVsProcs("fig5b", "Allreduce Latency in MVICH on Berkeley VIA", "bvia",
		[]Mechanism{StaticPolling, OnDemand}, bviaProcsList(opt), AllreduceOp(64), opt)
}

// initSweep is the Figure 8 series.
func initSweep(id, title, device string, mechs []Mechanism, procsList []int, opt Options) (*Table, error) {
	return mechSweep(id, title, axisProcs, "ms", procsList, mechs, opt, func(procs int, mech Mechanism) (string, error) {
		d, err := InitTime(device, mech, procs, opt.Seed)
		return fmt.Sprintf("%.2f", d.Seconds()*1e3), err
	})
}

// Fig8a regenerates Figure 8(a): MPI_Init time on cLAN for the serialized
// client-server static scheme, the peer-to-peer static scheme and on-demand.
func Fig8a(opt Options) (*Table, error) {
	t, err := initSweep("fig8a", "Initialization time in MVICH on cLAN VIA", "clan",
		[]Mechanism{StaticCS, StaticPolling, OnDemand}, clanProcsList(opt), opt)
	if err == nil {
		t.Notes = append(t.Notes, "paper: client-server >> peer-to-peer > on-demand (serialized accepts)")
	}
	return t, err
}

// Fig8b regenerates Figure 8(b): MPI_Init time on Berkeley VIA.
func Fig8b(opt Options) (*Table, error) {
	return initSweep("fig8b", "Initialization time in MVICH on Berkeley VIA", "bvia",
		[]Mechanism{StaticPolling, OnDemand}, bviaProcsList(opt), opt)
}
