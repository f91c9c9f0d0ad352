package bench

import (
	"fmt"
	"strings"

	"viampi/internal/mpi"
	"viampi/internal/simnet"
	"viampi/internal/sweep"
)

// extInitSizes is the ext-init sweep: past the paper's testbed, past the
// seed suite's 128 ranks, and past the cLAN NIC's 1024-VI hard limit —
// the last two sizes exist precisely to show static-p2p hitting the wall
// the paper predicts while on-demand keeps scaling.
var extInitSizes = []int{64, 256, 1024, 2048, 4096}

// extInitResult is one (size, mechanism) measurement.
type extInitResult struct {
	initMs    string // MPI_Init wall, virtual milliseconds
	firstUs   string // first ring Sendrecv on rank 0, virtual microseconds
	peakChans string // max over ranks of simultaneously live channels
}

// extInitRun boots an n-rank world under mech and measures the three
// ext-init quantities on a neighbour ring. Credits and the eager threshold
// are tuned down (4 × 112B buffers per VI) so the static mesh's pinned
// pools stay within host memory at thousand-rank sizes; both mechanisms
// get the same tuning so the comparison stays apples-to-apples. A static
// run that trips the NIC's per-port VI limit returns em-dashes — that hard
// stop is the datum, not a failure of the experiment.
func extInitRun(n int, mech Mechanism, seed int64) (extInitResult, error) {
	cfg := baseConfig("clan", mech, n, seed)
	cfg.CreditCount = 4
	cfg.EagerThreshold = 64
	var first simnet.Duration
	w, err := mpi.Run(cfg, func(r *mpi.Rank) {
		c := r.World()
		me := c.Rank()
		out := []byte{byte(me)}
		in := make([]byte, 4)
		t0 := r.Proc().Sim().Now()
		if _, err := c.Sendrecv((me+1)%n, 0, out, (me+n-1)%n, 0, in); err != nil {
			r.Proc().Sim().Failf("ext-init ring: %v", err)
			return
		}
		if me == 0 {
			first = r.Proc().Sim().Now().Sub(t0)
		}
	})
	if err != nil {
		if strings.Contains(err.Error(), "VI limit") {
			return extInitResult{"—", "—", "—"}, nil
		}
		return extInitResult{}, err
	}
	peak := 0
	for _, rs := range w.Ranks {
		if rs.PeakChans > peak {
			peak = rs.PeakChans
		}
	}
	return extInitResult{
		initMs:    fmt.Sprintf("%.3f", w.AvgInit().Seconds()*1e3),
		firstUs:   fmt.Sprintf("%.2f", float64(first)/1e3),
		peakChans: fmt.Sprint(peak),
	}, nil
}

// bootCost boots a procs-rank world with an empty main — MPI_Init plus
// MPI_Finalize and nothing else — and reports the scheduler event count and
// the virtual elapsed time. It is ext-micro's init-cost row: booting a world
// under on-demand must cost O(procs) events (a sleep-poll startup barrier
// once made this superlinear under staggered arrival), while the static boot
// carries the dense mesh's full connection storm. Credits and the eager
// threshold are tuned down as in extInitRun so static meshes stay within
// host memory.
func bootCost(mech Mechanism, procs int, seed int64) (events uint64, virtual simnet.Duration, err error) {
	cfg := baseConfig("clan", mech, procs, seed)
	cfg.CreditCount = 4
	cfg.EagerThreshold = 64
	var sim *simnet.Sim
	w, err := mpi.Run(cfg, func(r *mpi.Rank) {
		if r.Rank() == 0 {
			sim = r.Proc().Sim()
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return sim.EventCount, w.Elapsed, nil
}

// ExtInit sweeps MPI_Init cost, first-message latency, and peak per-rank
// channel-slot count for static-p2p vs. on-demand through 4096 processes.
// It is the experiment the sparse rank-state refactor exists to serve:
// static startup grows superlinearly and then hits the NIC's VI limit
// outright (the paper's "hard limit to scaling"), while on-demand init
// stays flat and its first messages pay a bounded connection-setup tax.
func ExtInit(opt Options) (*Table, error) {
	t := &Table{
		ID:    "ext-init",
		Title: "Init-cost extension: startup and first-message cost, static vs. on-demand, to 4096 procs",
		Columns: []string{"procs",
			"init static-p2p (ms)", "init on-demand (ms)",
			"first-msg static-p2p (us)", "first-msg on-demand (us)",
			"peak chans static-p2p", "peak chans on-demand"},
		Notes: []string{
			"ring workload; CreditCount=4, EagerThreshold=64 so dense pools fit host memory at 4096 ranks",
			"— marks static-p2p refused by the cLAN 1024-VI per-port limit (the paper's hard scaling wall)",
		},
	}
	sizes := extInitSizes
	if opt.Quick {
		sizes = []int{16, 64, 256}
	}
	mechs := []Mechanism{StaticPolling, OnDemand}
	var jobs []sweep.Job[extInitResult]
	for _, n := range sizes {
		for _, mech := range mechs {
			n, mech := n, mech
			jobs = append(jobs, sweep.Job[extInitResult]{
				ID: cellID("ext-init", "np", n, mech.Name),
				Run: func() (extInitResult, error) {
					r, err := extInitRun(n, mech, opt.Seed)
					if err != nil {
						return extInitResult{}, fmt.Errorf("ext-init %d/%s: %w", n, mech.Name, err)
					}
					return r, nil
				},
			})
		}
	}
	res, err := runGrid(opt, "ext-init", jobs)
	if err != nil {
		return nil, err
	}
	for i, n := range sizes {
		st, od := res[2*i], res[2*i+1]
		t.AddRow(fmt.Sprint(n),
			st.initMs, od.initMs,
			st.firstUs, od.firstUs,
			st.peakChans, od.peakChans)
	}
	return t, nil
}
