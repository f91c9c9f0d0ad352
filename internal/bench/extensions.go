package bench

import (
	"fmt"

	"viampi/internal/apps"
	"viampi/internal/mpi"
	"viampi/internal/npb"
	"viampi/internal/sweep"
)

// ExtScale pushes the paper's scalability argument past its 8-node testbed:
// MPI_Init time and total pinned eager-buffer memory for a 2-neighbour
// application at up to 128 processes under all three policies. The paper's
// §1 extrapolates a 119 GB waste for CG at 1024 nodes; this experiment
// shows the quadratic-vs-constant trend directly.
func ExtScale(opt Options) (*Table, error) {
	t := &Table{
		ID:    "ext-scale",
		Title: "Scaling extension: init time and pinned memory vs. processes (ring app)",
		Columns: []string{"procs",
			"init static-cs (ms)", "init static-p2p (ms)", "init on-demand (ms)",
			"pinned static (MB total)", "pinned on-demand (MB total)"},
		Notes: []string{"extension beyond the paper's 32-process testbed; pinned memory is the per-VI eager pools"},
	}
	sizes := []int{16, 32, 64, 96, 128}
	if opt.Quick {
		sizes = []int{8, 16, 32}
	}
	ring := func(r *mpi.Rank) {
		c := r.World()
		me, n := c.Rank(), c.Size()
		out := []byte{byte(me)}
		in := make([]byte, 4)
		if _, err := c.Sendrecv((me+1)%n, 0, out, (me+n-1)%n, 0, in); err != nil {
			r.Proc().Sim().Failf("ring: %v", err)
		}
	}
	type scaleCell struct {
		initMs   string
		pinnedMB float64
	}
	mechs := []Mechanism{StaticCS, StaticPolling, OnDemand}
	var jobs []sweep.Job[scaleCell]
	for _, n := range sizes {
		for _, mech := range mechs {
			n, mech := n, mech
			jobs = append(jobs, sweep.Job[scaleCell]{
				ID: cellID("ext-scale", "np", n, mech.Name),
				Run: func() (scaleCell, error) {
					cfg := baseConfig("clan", mech, n, opt.Seed)
					w, err := mpi.Run(cfg, ring)
					if err != nil {
						return scaleCell{}, fmt.Errorf("ext-scale %d/%s: %w", n, mech.Name, err)
					}
					return scaleCell{
						initMs:   fmt.Sprintf("%.2f", w.AvgInit().Seconds()*1e3),
						pinnedMB: float64(w.TotalPinnedPeak()) / (1 << 20),
					}, nil
				},
			})
		}
	}
	cells, err := runGrid(opt, "ext-scale", jobs)
	if err != nil {
		return nil, err
	}
	for i, n := range sizes {
		cs, p2p, od := cells[i*len(mechs)], cells[i*len(mechs)+1], cells[i*len(mechs)+2]
		t.AddRow(fmt.Sprint(n), cs.initMs, p2p.initMs, od.initMs,
			fmtF(p2p.pinnedMB), fmtF(od.pinnedMB))
	}
	return t, nil
}

// ExtApps replays the Table 1 production-application communication patterns
// through the full MPI stack at 64 processes and measures the Table 2
// quantities for them — the bridge between the paper's two tables. The
// paper's §1 argues these applications waste almost all of a static mesh;
// this experiment shows the measured VI counts and pinned memory.
func ExtApps(opt Options) (*Table, error) {
	t := &Table{
		ID:    "ext-apps",
		Title: "Production-app patterns (Table 1) measured on the stack (Table 2 metrics)",
		Columns: []string{"app", "procs", "VIs static", "VIs on-demand",
			"util static", "pinned static (MB)", "pinned on-demand (MB)"},
	}
	n := 64
	rounds := 3
	if opt.Quick {
		n, rounds = 16, 2
	}
	type appCell struct {
		avgVIs, util, pinnedMB float64
	}
	mechs := []Mechanism{StaticPolling, OnDemand}
	var jobs []sweep.Job[appCell]
	for _, p := range apps.All() {
		if p.Name == "SMG2000" && opt.Quick {
			continue // its wide partner set is slow in quick CI runs
		}
		for _, mech := range mechs {
			p, mech := p, mech
			jobs = append(jobs, sweep.Job[appCell]{
				ID: fmt.Sprintf("ext-apps/%s/%s", p.Name, mech.Name),
				Run: func() (appCell, error) {
					cfg := baseConfig("clan", mech, n, opt.Seed)
					w, err := apps.Replay(p, cfg, rounds, 256)
					if err != nil {
						return appCell{}, fmt.Errorf("ext-apps %s %s: %w", p.Name, mech.Name, err)
					}
					return appCell{
						avgVIs:   w.AvgVIs(),
						util:     w.AvgUtilization(),
						pinnedMB: float64(w.TotalPinnedPeak()) / (1 << 20),
					}, nil
				},
			})
		}
	}
	cells, err := runGrid(opt, "ext-apps", jobs)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, p := range apps.All() {
		if p.Name == "SMG2000" && opt.Quick {
			continue
		}
		st, od := cells[i], cells[i+1]
		i += 2
		t.AddRow(p.Name, fmt.Sprint(n),
			fmtF(st.avgVIs), fmtF(od.avgVIs),
			fmtF(st.util),
			fmtF(st.pinnedMB), fmtF(od.pinnedMB))
	}
	return t, nil
}

// ExtNpb runs the two NPB kernels the paper's evaluation skipped — FT
// (all-to-all transpose-bound) and LU (fine-grained wavefront pipeline) —
// under all three mechanisms on cLAN, completing the suite's coverage.
func ExtNpb(opt Options) (*Table, error) {
	t := &Table{
		ID:    "ext-npb",
		Title: "FT and LU (the kernels the paper omitted), cLAN, normalized",
		Columns: []string{"case", "spinwait (norm)", "on-demand (norm)",
			"polling (s)", "VIs on-demand"},
	}
	cases := []npbCase{
		{"FT", npb.ClassA, 16}, {"FT", npb.ClassB, 16},
		{"LU", npb.ClassA, 16}, {"LU", npb.ClassB, 16},
	}
	if opt.Quick {
		cases = []npbCase{{"FT", npb.ClassS, 8}, {"LU", npb.ClassS, 8}}
	}
	if err := npbEnsure(opt, "ext-npb",
		npbSpec{"clan", cases, []Mechanism{StaticSpinwait, StaticPolling, OnDemand}}); err != nil {
		return nil, err
	}
	// VI footprints from dedicated on-demand runs.
	footJobs := make([]sweep.Job[float64], len(cases))
	for i, cs := range cases {
		cs := cs
		footJobs[i] = sweep.Job[float64]{
			ID: fmt.Sprintf("ext-npb/footprint/%s", cs.label()),
			Run: func() (float64, error) {
				k, err := npb.ByName(cs.bench)
				if err != nil {
					return 0, err
				}
				_, w, err := npb.Run(k, cs.class, baseConfig("clan", OnDemand, cs.procs, opt.Seed))
				if err != nil {
					return 0, err
				}
				return w.AvgVIs(), nil
			},
		}
	}
	footprints, err := runGrid(opt, "ext-npb/footprint", footJobs)
	if err != nil {
		return nil, err
	}
	for i, cs := range cases {
		sw, err := runNPB("clan", cs.bench, cs.class, cs.procs, StaticSpinwait, opt)
		if err != nil {
			return nil, err
		}
		sp, err := runNPB("clan", cs.bench, cs.class, cs.procs, StaticPolling, opt)
		if err != nil {
			return nil, err
		}
		od, err := runNPB("clan", cs.bench, cs.class, cs.procs, OnDemand, opt)
		if err != nil {
			return nil, err
		}
		t.AddRow(cs.label(), fmtF(sw/sp), fmtF(od/sp), fmtF(sp), fmtF(footprints[i]))
	}
	return t, nil
}

// ExtIB carries the paper's conclusion forward: "since InfiniBand has many
// characteristics in common with VIA ... this issue will continue to exist
// along with next-generation InfiniBand hardware". Same experiments, IB
// personality (queue pairs as VIs, hardware doorbells, fast links): the
// latency advantage of the fabric does nothing for connection-setup cost or
// pinned-buffer scaling, so the mechanism ordering is unchanged.
func ExtIB(opt Options) (*Table, error) {
	t := &Table{
		ID:    "ext-ib",
		Title: "InfiniBand extension: the scalability issue outlives VIA",
		Columns: []string{"procs", "4B latency (us)",
			"init static-p2p (ms)", "init on-demand (ms)",
			"barrier static (us)", "barrier on-demand (us)",
			"pinned static (MB)", "pinned on-demand (MB)"},
	}
	sizes := []int{16, 32, 64}
	iters := 100
	if opt.Quick {
		sizes = []int{8, 16}
		iters = 20
	}
	lat, err := Pingpong("ib", StaticPolling, 4, 30, 0, opt.Seed)
	if err != nil {
		return nil, err
	}
	ring := func(r *mpi.Rank) {
		c := r.World()
		me, n := c.Rank(), c.Size()
		out := []byte{byte(me)}
		in := make([]byte, 4)
		if _, err := c.Sendrecv((me+1)%n, 0, out, (me+n-1)%n, 0, in); err != nil {
			r.Proc().Sim().Failf("ring: %v", err)
		}
	}
	jobs := make([]sweep.Job[[]string], len(sizes))
	for i, n := range sizes {
		n := n
		jobs[i] = sweep.Job[[]string]{
			ID: cellID("ext-ib", "np", n, "all"),
			Run: func() ([]string, error) {
				stInit, err := InitTime("ib", StaticPolling, n, opt.Seed)
				if err != nil {
					return nil, err
				}
				odInit, err := InitTime("ib", OnDemand, n, opt.Seed)
				if err != nil {
					return nil, err
				}
				stBar, err := CollectiveLatency("ib", StaticPolling, n, iters, BarrierOp, opt.Seed)
				if err != nil {
					return nil, err
				}
				odBar, err := CollectiveLatency("ib", OnDemand, n, iters, BarrierOp, opt.Seed)
				if err != nil {
					return nil, err
				}
				stW, err := mpi.Run(baseConfig("ib", StaticPolling, n, opt.Seed), ring)
				if err != nil {
					return nil, err
				}
				odW, err := mpi.Run(baseConfig("ib", OnDemand, n, opt.Seed), ring)
				if err != nil {
					return nil, err
				}
				return []string{fmt.Sprint(n), fmtMicros(lat),
					fmt.Sprintf("%.2f", stInit.Seconds()*1e3),
					fmt.Sprintf("%.2f", odInit.Seconds()*1e3),
					fmtMicros(stBar), fmtMicros(odBar),
					fmtF(float64(stW.TotalPinnedPeak()) / (1 << 20)),
					fmtF(float64(odW.TotalPinnedPeak()) / (1 << 20))}, nil
			},
		}
	}
	rows, err := runGrid(opt, "ext-ib", jobs)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

// ExtDynamic evaluates the paper's stated future work (§6): on-demand
// connections combined with dynamic per-VI flow control. It reports pinned
// memory and run time for a mixed workload — a hot neighbour exchange plus
// occasional wide collectives — under static, on-demand, and
// on-demand+dynamic-credits.
func ExtDynamic(opt Options) (*Table, error) {
	t := &Table{
		ID:    "ext-dynamic",
		Title: "Future-work extension: on-demand + dynamic flow control",
		Columns: []string{"configuration", "avg VIs", "pinned/rank (kB)",
			"run time (ms)"},
		Notes: []string{"hot ring traffic + occasional allreduce at 16 ranks; dynamic pools grow only on the hot channels"},
	}
	n := 16
	iters := 200
	if opt.Quick {
		n, iters = 8, 50
	}
	workload := func(r *mpi.Rank) {
		c := r.World()
		me := c.Rank()
		out := make([]byte, 512)
		in := make([]byte, 512)
		for i := 0; i < iters; i++ {
			if _, err := c.Sendrecv((me+1)%n, 0, out, (me+n-1)%n, 0, in); err != nil {
				r.Proc().Sim().Failf("ring: %v", err)
				return
			}
			if i%20 == 0 {
				if err := c.AllreduceF64([]float64{1}, mpi.SumF64); err != nil {
					r.Proc().Sim().Failf("allreduce: %v", err)
					return
				}
			}
		}
	}
	type cfgCase struct {
		name string
		cfg  mpi.Config
	}
	cases := []cfgCase{
		{"static-p2p", baseConfig("clan", StaticPolling, n, opt.Seed)},
		{"on-demand", baseConfig("clan", OnDemand, n, opt.Seed)},
	}
	dyn := baseConfig("clan", OnDemand, n, opt.Seed)
	dyn.DynamicCredits = true
	cases = append(cases, cfgCase{"on-demand+dynamic", dyn})
	jobs := make([]sweep.Job[[]string], len(cases))
	for i, cs := range cases {
		cs := cs
		jobs[i] = sweep.Job[[]string]{
			ID: "ext-dynamic/" + cs.name,
			Run: func() ([]string, error) {
				w, err := mpi.Run(cs.cfg, workload)
				if err != nil {
					return nil, fmt.Errorf("ext-dynamic %s: %w", cs.name, err)
				}
				perRank := float64(w.TotalPinnedPeak()) / float64(n) / 1024
				return []string{cs.name, fmtF(w.AvgVIs()), fmtF(perRank),
					fmt.Sprintf("%.3f", w.Elapsed.Seconds()*1e3)}, nil
			},
		}
	}
	rows, err := runGrid(opt, "ext-dynamic", jobs)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}
