package benchmark

// The traced pass: the per-layer metric table (name, unit, direction and the
// end-to-end metric each one is predicted to move, on which workloads) and
// the driver that measures all of them around calls into each layer's
// exported API.

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"viampi/internal/bench"
	"viampi/internal/mpi"
	"viampi/internal/npb"
	"viampi/internal/obs"
	"viampi/internal/obs/capture"
	"viampi/internal/sweep"
)

// layerMetric is one row of the per-layer table. moves/on record the
// interaction prediction made before measuring: a change that improves this
// metric should improve end-to-end metric moves on the workloads in on, and
// leave every other workload unchanged. An empty moves means "no end-to-end
// metric": every workload runs with a nil bus, or the value is an exact
// count whose movement is itself the signal.
type layerMetric struct {
	name, unit, better string
	moves              string
	on                 []string
}

var (
	msgPath  = []string{"pingpong_8b", "npb_mix"}
	connBoot = []string{"mesh_boot"}
	connLazy = []string{"evict_churn"}
	figures  = []string{"figures_quick"}
	everyMPI = []string{"pingpong_8b", "mesh_boot", "evict_churn", "npb_mix"}
)

func layerMetrics() []layerMetric {
	var ms []layerMetric
	add := func(name, unit, better, moves string, on []string) {
		ms = append(ms, layerMetric{name, unit, better, moves, on})
	}
	for _, r := range messageLadder {
		wall, allocs, mb, on := "wall_s_p50", "allocs_per_run", "alloc_mb_per_run", msgPath
		if r.layer == "obs" || r.layer == "capture" {
			wall, allocs, mb, on = "", "", "", nil // every workload runs with a nil bus
		}
		add(r.layer+".rt_ns", "ns", "lower", wall, on)
		add(r.layer+".rt_allocs", "count", "lower", allocs, on)
		add(r.layer+".rt_bytes", "B", "lower", mb, on)
		add(r.layer+".rt_events", "count", "lower", wall, on)
	}
	add("mpi.rt_ns_gmp1", "ns", "lower", "wall_s_p50", msgPath)
	for _, l := range []string{"fabric", "via", "mpi"} {
		add(l+".rt_ns_16k", "ns", "lower", "wall_s_p50", []string{"npb_mix"})
	}
	for _, r := range connLadder {
		on := connBoot
		if r.layer == "mpi" {
			on = connLazy
		}
		add(r.layer+".conn_ns", "ns", "lower", "wall_s_p50", on)
		add(r.layer+".conn_allocs", "count", "lower", "allocs_per_run", on)
		add(r.layer+".conn_bytes", "B", "lower", "alloc_mb_per_run", on)
		add(r.layer+".conn_events", "count", "lower", "wall_s_p50", on)
	}
	for _, n := range []string{"simnet.timer_ns_per_event", "simnet.handoff_ns_per_event",
		"simnet.handoff_ns_per_event_gmp1", "simnet.heap_ns_per_event", "simnet.multiproc_ns_per_event"} {
		add(n, "ns", "lower", "wall_s_p50", msgPath)
	}
	add("mpi.run_ns_per_event", "ns", "lower", "wall_s_p50", everyMPI)
	add("mpi.run_allocs_per_event", "count", "lower", "allocs_per_run", everyMPI)
	add("mpi.run_bytes_per_event", "B", "lower", "alloc_mb_per_run", everyMPI)
	add("mpi.cpu_over_wall", "ratio", "lower", "wall_s_p50", everyMPI)
	for _, n := range []string{"simnet.events", "simnet.virtual_ns", "mpi.msgs_sent", "mpi.vis_created",
		"mpi.pinned_peak_bytes", "core.conns_established", "core.evictions", "core.parked_sends"} {
		unit := "count"
		switch n {
		case "simnet.virtual_ns":
			unit = "ns"
		case "mpi.pinned_peak_bytes":
			unit = "B"
		}
		add(n, unit, "lower", "", nil)
	}
	add("sweep.job_overhead_ns", "ns", "lower", "wall_s_p50", figures)
	add("sweep.speedup", "ratio", "higher", "wall_s_p50", figures)
	add("sweep.cpu_over_wall", "ratio", "higher", "wall_s_p50", figures)
	for _, id := range figureIDs {
		add("bench.exp_wall_s."+id, "s", "lower", "wall_s_p50", figures)
		add("bench.exp_wall_s_j1."+id, "s", "lower", "wall_s_p50", figures)
	}
	for _, k := range npbKernels {
		add("npb.wall_s."+k.name, "s", "lower", "wall_s_p50", []string{"npb_mix", "figures_quick"})
	}
	add("obs.emit_ns_per_event", "ns", "lower", "", nil)
	add("capture.write_ns_per_event", "ns", "lower", "", nil)
	add("capture.bytes_per_event", "B", "lower", "", nil)
	add("capture.read_ns_per_event", "ns", "lower", "", nil)
	add("obs.perfetto_ns_per_event", "ns", "lower", "", nil)
	add("trace.overhead_pct", "%", "lower", "", nil)
	return ms
}

// npbKernels is the application mix of npb_mix, also timed one by one.
var npbKernels = []struct {
	name  string
	class npb.Class
}{{"CG", npb.ClassW}, {"SP", npb.ClassW}, {"IS", npb.ClassA}}

// passSize holds the traced pass's repetition counts.
type passSize struct {
	msgRT, msgRT16k, conn int // ladder lengths
	ladderReps            int // each rung is the median of this many runs
	simEvents             int // events per scheduler-core run
	sweepJobs             int
	stackReps             int // traced/untraced pairs of the workload itself
	figIDs                []string
	replays               int // passes over the recorded event stream
}

func passSizes(sz size) passSize {
	if sz == toy {
		return passSize{msgRT: 40, msgRT16k: 10, conn: 10, ladderReps: 1, simEvents: 2000,
			sweepJobs: 100, stackReps: 1, figIDs: []string{"fig8a"}, replays: 1}
	}
	return passSize{msgRT: 25_000, msgRT16k: 5_000, conn: 2_000, ladderReps: 5, simEvents: 400_000,
		sweepJobs: 20_000, stackReps: 3, figIDs: figureIDs, replays: 5}
}

// tracedPass measures every per-layer metric. w must already be set up.
func tracedPass(w *workload, seed int64, sz size, tr *tracer) (map[string]float64, error) {
	ps := passSizes(sz)
	out := map[string]float64{}
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"whole-stack", func() error { return wholeStack(w, ps, tr, out) }},
		{"message-ladder", func() error { return runMessageLadder(ps, tr, out) }},
		{"connection-ladder", func() error { return runConnLadder(ps, tr, out) }},
		{"simnet-alone", func() error { return simnetAlone(ps, tr, out) }},
		{"sweep-bench-npb", func() error { return sweepBenchNpb(ps, seed, sz, tr, out) }},
		{"obs-capture", func() error { return obsCaptureDirect(ps, tr, out) }},
	} {
		if err := tr.in(step.name, 0, step.run); err != nil {
			return nil, fmt.Errorf("%s: %w", step.name, err)
		}
	}
	return out, nil
}

// measureRung runs one rung reps times and returns per-operation medians.
func measureRung(tr *tracer, name string, r rung, n, size, reps int) (ns, allocs, byts, events float64, err error) {
	var ss []sample
	var ev uint64
	for rep := 0; rep < reps; rep++ {
		err = tr.in(name, rep, func() error {
			s, err := timed(func() error {
				var err error
				ev, err = r.run(n, size)
				return err
			})
			ss = append(ss, s)
			return err
		})
		if err != nil {
			return 0, 0, 0, 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	per := func(f func(sample) float64) float64 { return medianOf(ss, f) / float64(n) }
	return per(func(s sample) float64 { return float64(s.wall.Nanoseconds()) }),
		per(func(s sample) float64 { return float64(s.allocs) }),
		per(func(s sample) float64 { return float64(s.bytes) }),
		float64(ev) / float64(n), nil
}

func runMessageLadder(ps passSize, tr *tracer, out map[string]float64) error {
	for _, r := range messageLadder {
		ns, allocs, byts, events, err := measureRung(tr, r.layer+".rt", r, ps.msgRT, 8, ps.ladderReps)
		if err != nil {
			return err
		}
		out[r.layer+".rt_ns"], out[r.layer+".rt_allocs"] = ns, allocs
		out[r.layer+".rt_bytes"], out[r.layer+".rt_events"] = byts, events
	}
	ns, _, _, _, err := measureRung(tr, "mpi.rt_gmp1", rung{"mpi", mpiRTOneP}, ps.msgRT, 8, ps.ladderReps)
	if err != nil {
		return err
	}
	out["mpi.rt_ns_gmp1"] = ns
	for _, r := range []rung{{"fabric", fabricRT}, {"via", viaRT}, {"mpi", mpiRT}} {
		ns, _, _, _, err := measureRung(tr, r.layer+".rt_16k", r, ps.msgRT16k, 16<<10, ps.ladderReps)
		if err != nil {
			return err
		}
		out[r.layer+".rt_ns_16k"] = ns
	}
	return nil
}

func runConnLadder(ps passSize, tr *tracer, out map[string]float64) error {
	for _, r := range connLadder {
		ns, allocs, byts, events, err := measureRung(tr, r.layer+".conn", r, ps.conn, 0, ps.ladderReps)
		if err != nil {
			return err
		}
		out[r.layer+".conn_ns"], out[r.layer+".conn_allocs"] = ns, allocs
		out[r.layer+".conn_bytes"], out[r.layer+".conn_events"] = byts, events
	}
	return nil
}

// simnetAlone times the scheduler core with nothing on top of it.
func simnetAlone(ps passSize, tr *tracer, out map[string]float64) error {
	n := ps.simEvents
	cases := []struct {
		metric string
		gmp1   bool
		run    func() (bench.SimCoreResult, error)
	}{
		{"simnet.timer_ns_per_event", false, func() (bench.SimCoreResult, error) { return bench.SimCoreSleepCycle(1, n) }},
		{"simnet.handoff_ns_per_event", false, func() (bench.SimCoreResult, error) { return bench.SimCoreParkWake(n / 2) }},
		{"simnet.handoff_ns_per_event_gmp1", true, func() (bench.SimCoreResult, error) { return bench.SimCoreParkWake(n / 2) }},
		{"simnet.heap_ns_per_event", false, func() (bench.SimCoreResult, error) { return bench.SimCoreEventChurn(n) }},
		{"simnet.multiproc_ns_per_event", false, func() (bench.SimCoreResult, error) { return bench.SimCoreSleepCycle(8, n/8) }},
	}
	for _, c := range cases {
		var perEvent []float64
		for rep := 0; rep < ps.ladderReps; rep++ {
			err := tr.in(c.metric, rep, func() error {
				if c.gmp1 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				}
				var res bench.SimCoreResult
				s, err := timed(func() error {
					var err error
					res, err = c.run()
					return err
				})
				if err == nil {
					perEvent = append(perEvent, float64(s.wall.Nanoseconds())/float64(res.Events))
				}
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: %w", c.metric, err)
			}
		}
		out[c.metric] = median(perEvent)
	}
	return nil
}

// wholeStack runs the workload itself, alternating untraced repetitions with
// repetitions that carry a bus and a Collector, and reads the counts the
// layers expose at the same boundary.
func wholeStack(w *workload, ps passSize, tr *tracer, out map[string]float64) error {
	if !w.mpiRun {
		return nil // this group reads 0 for a workload that is not an mpi.Run
	}
	var plain, traced []sample
	var o outcome
	reg := obs.NewRegistry()
	for rep := 0; rep < ps.stackReps; rep++ {
		for _, withBus := range []bool{false, true} {
			name := w.name + ".untraced"
			var bus *obs.Bus
			if withBus {
				name = w.name + ".traced"
				bus = obs.NewBus()
				reg = obs.NewRegistry()
				obs.NewCollector(reg).Attach(bus)
			}
			err := tr.in(name, rep, func() error {
				s, err := timed(func() error {
					var err error
					o, err = w.rep(bus)
					return err
				})
				if err != nil {
					return err
				}
				if withBus {
					traced = append(traced, s)
				} else {
					plain = append(plain, s)
				}
				return w.verify(o, s.wall)
			})
			if err != nil {
				return err
			}
		}
	}
	events := float64(o.events)
	wall := medianOf(plain, wallSeconds)
	out["mpi.run_ns_per_event"] = wall * 1e9 / events
	out["mpi.run_allocs_per_event"] = medianOf(plain, func(s sample) float64 { return float64(s.allocs) }) / events
	out["mpi.run_bytes_per_event"] = medianOf(plain, func(s sample) float64 { return float64(s.bytes) }) / events
	out["mpi.cpu_over_wall"] = medianOf(plain, func(s sample) float64 { return s.cpu.Seconds() / s.wall.Seconds() })
	out["simnet.events"] = events
	out["simnet.virtual_ns"] = float64(o.virtual)
	out["mpi.msgs_sent"] = float64(o.msgs)
	out["mpi.vis_created"] = float64(o.vis)
	out["mpi.pinned_peak_bytes"] = float64(o.pinnedPeak)
	out["core.conns_established"] = float64(o.conns)
	out["core.evictions"] = float64(reg.Counter("conn.evictions"))
	out["core.parked_sends"] = float64(reg.Counter("events.fifo.park"))
	out["trace.overhead_pct"] = (medianOf(traced, wallSeconds)/wall - 1) * 100
	return nil
}

// sweepBenchNpb times the batch runner's per-job overhead, each experiment
// of figures_quick at one worker and at nproc workers, and each kernel of
// npb_mix on its own. Every experiment run takes a seed no other run in
// this process has used, so the NPB result cache is cold each time.
func sweepBenchNpb(ps passSize, seed int64, sz size, tr *tracer, out map[string]float64) error {
	jobs := make([]sweep.Job[int], ps.sweepJobs)
	for i := range jobs {
		jobs[i] = sweep.Job[int]{ID: "noop", Run: func() (int, error) { return i, nil }}
	}
	s, err := timed(func() error {
		_, err := sweep.Values(sweep.Run(sweep.Options{}, jobs))
		return err
	})
	if err != nil {
		return err
	}
	out["sweep.job_overhead_ns"] = float64(s.wall.Nanoseconds()) / float64(len(jobs))

	var j1, jn, jnCPU time.Duration
	for _, id := range ps.figIDs {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			name := "bench.exp_wall_s." + id
			if workers == 1 {
				name = "bench.exp_wall_s_j1." + id
			}
			var s sample
			err := tr.in(name, 0, func() error {
				var err error
				s, err = timed(func() error {
					_, _, err := renderFigures([]string{id}, freshFigSeed(seed<<20), workers)
					return err
				})
				return err
			})
			if err != nil {
				return err
			}
			out[name] = s.wall.Seconds()
			if workers == 1 {
				j1 += s.wall
			} else {
				jn += s.wall
				jnCPU += s.cpu
			}
		}
	}
	out["sweep.speedup"] = j1.Seconds() / jn.Seconds()
	out["sweep.cpu_over_wall"] = jnCPU.Seconds() / jn.Seconds()

	for _, kn := range npbKernels {
		class, np := kn.class, 16
		if sz == toy {
			class, np = npb.ClassS, 4
		}
		name := "npb.wall_s." + kn.name
		err := tr.in(name, 0, func() error {
			k, err := npb.ByName(kn.name)
			if err != nil {
				return err
			}
			s, err := timed(func() error {
				res, _, err := npb.Run(k, class, mpi.Config{Procs: np, Seed: seed, Deadline: deadline})
				if err == nil && !res.Verified {
					err = fmt.Errorf("%s.%c: verification failed", kn.name, class)
				}
				return err
			})
			out[name] = s.wall.Seconds()
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// obsCaptureDirect replays a recorded event stream — a short ping-pong with
// the bus on — straight into the observability sinks, without the stack.
func obsCaptureDirect(ps passSize, tr *tracer, out map[string]float64) error {
	rec := obs.NewRecorder()
	bus := obs.NewBus()
	rec.Attach(bus)
	if _, err := mpiRTWith(ps.msgRT/10+1, 8, bus); err != nil {
		return err
	}
	events := rec.Events()
	n := float64(len(events) * ps.replays)

	perEvent := func(name string, fn func() error) error {
		return tr.in(name, 0, func() error {
			s, err := timed(fn)
			out[name] = float64(s.wall.Nanoseconds()) / n
			return err
		})
	}
	replay := func(b *obs.Bus) {
		for i := 0; i < ps.replays; i++ {
			for _, e := range events {
				b.Emit(e)
			}
		}
	}

	if err := perEvent("obs.emit_ns_per_event", func() error {
		b := obs.NewBus()
		count := 0
		b.Subscribe(func(obs.Event) { count++ })
		replay(b)
		if count != len(events)*ps.replays {
			return fmt.Errorf("subscriber saw %d of %d events", count, len(events)*ps.replays)
		}
		return nil
	}); err != nil {
		return err
	}

	var bundle bytes.Buffer
	if err := perEvent("capture.write_ns_per_event", func() error {
		bundle.Reset()
		cw, err := capture.NewWriter(&bundle, capture.Header{World: 2, Device: "clan", Policy: "ondemand"})
		if err != nil {
			return err
		}
		b := obs.NewBus()
		cw.Attach(b)
		replay(b)
		return cw.Close()
	}); err != nil {
		return err
	}
	out["capture.bytes_per_event"] = float64(bundle.Len()) / n

	if err := perEvent("capture.read_ns_per_event", func() error {
		got, err := capture.ReadBundle(bytes.NewReader(bundle.Bytes()))
		if err == nil && len(got.Events) != len(events)*ps.replays {
			err = fmt.Errorf("bundle holds %d of %d events", len(got.Events), len(events)*ps.replays)
		}
		return err
	}); err != nil {
		return err
	}

	return perEvent("obs.perfetto_ns_per_event", func() error {
		r := obs.NewRecorder()
		b := obs.NewBus()
		r.Attach(b)
		replay(b)
		return r.WritePerfetto(io.Discard)
	})
}
