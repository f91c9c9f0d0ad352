package benchmark

// The five closed-loop workloads. Each is a *workload: setup generates the
// inputs from the seed and runs the correctness reference, rep executes one
// repetition against the layer's public API and reports what it observed,
// and check decides whether that repetition counts as a failed op.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"viampi/internal/bench"
	"viampi/internal/mpi"
	"viampi/internal/npb"
	"viampi/internal/obs"
	"viampi/internal/simnet"
)

// outcome is what one repetition produced, as seen from outside the stack.
type outcome struct {
	events  uint64 // simnet events dispatched (0 where the layer API hides them)
	virtual int64  // virtual nanoseconds the run took
	sum     uint64 // checksum of the MPI-visible output
	openVIs int    // VI endpoints still open when the run returned
	pinned  int64  // bytes still registered when the run returned

	// The paper's Table 2 quantities, summed over ranks.
	msgs, vis, conns, pinnedPeak int64
}

func (o *outcome) add(p outcome) {
	o.events += p.events
	o.virtual += p.virtual
	o.sum = o.sum*1099511628211 + p.sum
	o.openVIs += p.openVIs
	o.pinned += p.pinned
	o.msgs += p.msgs
	o.vis += p.vis
	o.conns += p.conns
	o.pinnedPeak += p.pinnedPeak
}

// worldOutcome reads the counters a finished mpi.Run exposes.
func worldOutcome(w *mpi.World, sum uint64) outcome {
	o := outcome{
		events:  w.Net.Sim().EventCount,
		virtual: int64(w.Elapsed),
		sum:     sum,
		openVIs: w.Net.TotalOpenVIs(),
	}
	for _, p := range w.Net.Ports() {
		o.pinned += p.Memory().Pinned()
		o.conns += int64(p.Stats().VisConnected)
	}
	o.conns /= 2 // one connection is two connected endpoints
	for _, rs := range w.Ranks {
		o.msgs += rs.MsgsSent
		o.vis += int64(rs.VisCreated)
		o.pinnedPeak += rs.PinnedPeak
	}
	return o
}

// workload is one named traffic shape.
type workload struct {
	name string
	// mpiRun is true for the workloads that are one or more mpi.Run calls,
	// so their events and Table 2 counts are readable and a bus can ride
	// along in the traced pass.
	mpiRun bool
	// setup generates the inputs for seed, runs the correctness reference and
	// one warm-up repetition, and leaves the outcome every later repetition
	// must reproduce in ref. It returns a hash of the generated inputs.
	setup func(seed int64) (inputs uint64, err error)
	// rep runs one repetition; bus is nil except in the traced pass.
	rep func(bus *obs.Bus) (outcome, error)
	// check is applied to every timed repetition; nil means sameAsRef.
	check func(o outcome, wall time.Duration) error

	ref     outcome
	refWall time.Duration // wall time of the warm-up repetition
}

// sameAsRef is the check every workload shares: host scheduling must never
// reach virtual time, the event count, the output or the resources held.
func (w *workload) sameAsRef(o outcome) error {
	switch {
	case o.events != w.ref.events:
		return fmt.Errorf("event count %d, warm-up had %d", o.events, w.ref.events)
	case o.virtual != w.ref.virtual:
		return fmt.Errorf("virtual time %d ns, warm-up had %d", o.virtual, w.ref.virtual)
	case o.sum != w.ref.sum:
		return fmt.Errorf("output checksum %#x, want %#x", o.sum, w.ref.sum)
	case o.openVIs != w.ref.openVIs || o.pinned != w.ref.pinned:
		return fmt.Errorf("resources at exit %d VIs/%d B, warm-up had %d/%d",
			o.openVIs, o.pinned, w.ref.openVIs, w.ref.pinned)
	}
	return nil
}

func (w *workload) verify(o outcome, wall time.Duration) error {
	if w.check != nil {
		return w.check(o, wall)
	}
	return w.sameAsRef(o)
}

// warmUp is the last step of every setup: one untimed repetition whose
// outcome becomes the reference.
func (w *workload) warmUp() error {
	t0 := time.Now()
	o, err := w.rep(nil)
	if err != nil {
		return err
	}
	w.ref, w.refWall = o, time.Since(t0)
	return nil
}

// size scales a workload: full is what BENCHMARK.json measures, toy is the
// tier-1 smoke test's few-millisecond version of the same code path.
type size int

const (
	full size = iota
	toy
)

func pick(sz size, fullN, toyN int) int {
	if sz == toy {
		return toyN
	}
	return fullN
}

// deadline is an abort guard on virtual time; no workload comes near it.
const deadline = 4 * 3600 * simnet.Second

func hashU64(vals ...uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return h.Sum64()
}

// hashBytes runs inside evict_churn's timed region, once per message; the
// hasher does not escape, so it adds nothing to the allocation counts.
func hashBytes(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

func workloadNames() []string {
	return []string{"pingpong_8b", "mesh_boot", "evict_churn", "npb_mix", "figures_quick"}
}

func newWorkload(name string, sz size) (*workload, error) {
	switch name {
	case "pingpong_8b":
		return pingpong8b(sz), nil
	case "mesh_boot":
		return meshBoot(sz), nil
	case "evict_churn":
		return evictChurn(sz, 4), nil
	case "npb_mix":
		return npbMix(sz), nil
	case "figures_quick":
		return figuresQuick(sz, freshFigSeed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// ---------------------------------------------------------------------------
// pingpong_8b

// pingpong bounces len(pattern) messages of size bytes between two ranks on
// the cLAN model (on-demand, polling). Round i carries pattern[i] in its
// first eight bytes; both sides verify every payload they receive. It is
// the pingpong_8b repetition and, at other sizes and with a bus, the mpi,
// obs and capture rungs of the message ladder.
func pingpong(pattern []uint64, size int, seed int64, bus *obs.Bus) (*mpi.World, error) {
	var fail error
	w, err := mpi.Run(mpi.Config{Procs: 2, Seed: seed, Deadline: deadline, Obs: bus}, func(r *mpi.Rank) {
		c := r.World()
		out, in := make([]byte, size), make([]byte, size)
		me := r.Rank()
		for i, want := range pattern {
			binary.LittleEndian.PutUint64(out, want)
			if me == 0 {
				if err := c.Send(1, 0, out); err != nil {
					fail = err
					return
				}
			}
			if _, err := c.Recv(in, 1-me, 0); err != nil {
				fail = err
				return
			}
			if got := binary.LittleEndian.Uint64(in); got != want {
				fail = fmt.Errorf("rank %d round %d: payload %#x, want %#x", me, i, got, want)
				return
			}
			if me == 1 {
				if err := c.Send(0, 0, out); err != nil {
					fail = err
					return
				}
			}
		}
	})
	if err == nil {
		err = fail
	}
	return w, err
}

func seededPattern(seed int64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	p := make([]uint64, n)
	for i := range p {
		p[i] = rng.Uint64()
	}
	return p
}

func pingpong8b(sz size) *workload {
	w := &workload{name: "pingpong_8b", mpiRun: true}
	var (
		seed       int64
		pattern    []uint64
		patternSum uint64
	)
	w.setup = func(s int64) (uint64, error) {
		seed = s
		pattern = seededPattern(s, pick(sz, 200_000, 200))
		patternSum = hashU64(pattern...)
		return patternSum, w.warmUp()
	}
	w.rep = func(bus *obs.Bus) (outcome, error) {
		world, err := pingpong(pattern, 8, seed, bus)
		if err != nil {
			return outcome{}, err
		}
		for _, rs := range world.Ranks {
			if rs.VisCreated != 1 {
				return outcome{}, fmt.Errorf("rank %d created %d VIs, want 1", rs.Rank, rs.VisCreated)
			}
		}
		// Every payload was compared with the pattern inside the run; the
		// checksum names which pattern that was.
		return worldOutcome(world, patternSum), nil
	}
	return w
}

// ---------------------------------------------------------------------------
// mesh_boot

func meshBoot(sz size) *workload {
	w := &workload{name: "mesh_boot", mpiRun: true}
	np := pick(sz, 256, 16)
	var seed int64
	w.setup = func(s int64) (uint64, error) {
		seed = s
		return hashU64(uint64(s), uint64(np)), w.warmUp()
	}
	w.rep = func(bus *obs.Bus) (outcome, error) {
		world, err := mpi.Run(mpi.Config{
			Procs: np, Policy: "static-p2p", CreditCount: 4, EagerThreshold: 64,
			Seed: seed, Deadline: deadline, Obs: bus,
		}, func(*mpi.Rank) {})
		if err != nil {
			return outcome{}, err
		}
		for _, rs := range world.Ranks {
			if rs.VisCreated != np-1 {
				return outcome{}, fmt.Errorf("rank %d created %d VIs, want %d", rs.Rank, rs.VisCreated, np-1)
			}
		}
		return worldOutcome(world, uint64(np)), nil
	}
	return w
}

// ---------------------------------------------------------------------------
// evict_churn

// shiftSchedule draws one shift per round. Shifts k and np-k use the same
// two connections per rank, so they form one class; a round never repeats a
// class used in the last three rounds. With MaxVIs=4 (two rounds' worth of
// connections) that makes every round a reconnect whatever the seed, so the
// work per repetition — and with it the allocation metrics — does not depend
// on the seed, only the order of partners does. k = np/2 is left out: it
// opens one connection where every other shift opens two.
func shiftSchedule(rng *rand.Rand, np, rounds int) []int {
	const window = 3
	classes := np/2 - 1
	sched := make([]int, rounds)
	recent := make([]int, 0, window)
	for i := range sched {
		var c int
		for {
			c = 1 + rng.Intn(classes)
			if !slices.Contains(recent, c) {
				break
			}
		}
		if len(recent) == window {
			recent = recent[1:]
		}
		recent = append(recent, c)
		if rng.Intn(2) == 1 {
			c = np - c
		}
		sched[i] = c
	}
	return sched
}

func evictChurn(sz size, maxVIs int) *workload {
	w := &workload{name: "evict_churn", mpiRun: true}
	const np, msgLen = 16, 64
	var (
		seed   int64
		sched  []int
		filler []byte // msgLen-16 seeded bytes per round
	)
	// run executes the program under the given VI cap and returns the world
	// and the checksum of everything every rank received.
	run := func(maxVIs int, bus *obs.Bus) (*mpi.World, uint64, error) {
		var fail error
		var sum uint64
		world, err := mpi.Run(mpi.Config{Procs: np, MaxVIs: maxVIs, Seed: seed, Deadline: deadline, Obs: bus},
			func(r *mpi.Rank) {
				c := r.World()
				me := c.Rank()
				out, in := make([]byte, msgLen), make([]byte, msgLen)
				for round, k := range sched {
					dst, src := (me+k)%np, (me-k+np)%np
					fill := filler[round*(msgLen-16) : (round+1)*(msgLen-16)]
					binary.LittleEndian.PutUint64(out[0:], uint64(me))
					binary.LittleEndian.PutUint64(out[8:], uint64(round))
					copy(out[16:], fill)
					if _, err := c.Sendrecv(dst, round, out, src, round, in); err != nil {
						fail = err
						return
					}
					if binary.LittleEndian.Uint64(in[0:]) != uint64(src) ||
						binary.LittleEndian.Uint64(in[8:]) != uint64(round) ||
						!bytes.Equal(in[16:], fill) {
						fail = fmt.Errorf("rank %d round %d: bad payload from %d", me, round, src)
						return
					}
					sum += hashBytes(in)
				}
			})
		if err == nil {
			err = fail
		}
		return world, sum, err
	}
	w.setup = func(s int64) (uint64, error) {
		seed = s
		rng := rand.New(rand.NewSource(s))
		sched = shiftSchedule(rng, np, pick(sz, 150, 12))
		filler = make([]byte, len(sched)*(msgLen-16))
		rng.Read(filler)
		if err := w.warmUp(); err != nil {
			return 0, err
		}
		// Policy equivalence at the MPI level: the capped run must deliver
		// exactly what the uncapped run of the same program delivers.
		_, want, err := run(0, nil)
		if err != nil {
			return 0, fmt.Errorf("uncapped reference: %w", err)
		}
		if w.ref.sum != want {
			return 0, fmt.Errorf("capped run delivered checksum %#x, uncapped %#x", w.ref.sum, want)
		}
		in := hashBytes(filler)
		for _, k := range sched {
			in = hashU64(in, uint64(k))
		}
		return in, nil
	}
	w.rep = func(bus *obs.Bus) (outcome, error) {
		world, sum, err := run(maxVIs, bus)
		if err != nil {
			return outcome{}, err
		}
		for _, rs := range world.Ranks {
			if rs.VisCreated <= maxVIs {
				return outcome{}, fmt.Errorf("rank %d created %d VIs under a cap of %d: nothing was evicted",
					rs.Rank, rs.VisCreated, maxVIs)
			}
		}
		return worldOutcome(world, sum), nil
	}
	return w
}

// ---------------------------------------------------------------------------
// npb_mix

func npbMix(sz size) *workload {
	w := &workload{name: "npb_mix", mpiRun: true}
	np := pick(sz, 16, 4)
	var seed int64
	w.setup = func(s int64) (uint64, error) {
		seed = s
		return hashU64(uint64(s), uint64(np)), w.warmUp()
	}
	w.rep = func(bus *obs.Bus) (outcome, error) {
		var total outcome
		for _, kn := range npbKernels {
			k, err := npb.ByName(kn.name)
			if err != nil {
				return outcome{}, err
			}
			class := kn.class
			if sz == toy {
				class = npb.ClassS
			}
			res, world, err := npb.Run(k, class, mpi.Config{Procs: np, Seed: seed, Deadline: deadline, Obs: bus})
			if err != nil {
				return outcome{}, err
			}
			if !res.Verified {
				return outcome{}, fmt.Errorf("%s.%c: %d verification failures", kn.name, class, res.Failures)
			}
			total.add(worldOutcome(world, math.Float64bits(res.TimeSec)))
		}
		return total, nil
	}
	return w
}

// ---------------------------------------------------------------------------
// figures_quick

// lastFigSeed is the last seed handed to bench in this process. bench keeps
// a process-global NPB result cache keyed on (Quick, Seed): a repetition
// that reuses a seed times a map lookup, not a simulation. So there is one
// counter for the process and it only moves forward.
var lastFigSeed int64

// freshFigSeed returns a seed above base that nothing in this process has
// used: in a fresh process base+1, base+2, …, so a run's inputs follow from
// its --seed alone.
func freshFigSeed(base int64) int64 {
	lastFigSeed = max(lastFigSeed, base) + 1
	return lastFigSeed
}

// renderFigures runs the experiments under one seed and renders them to
// text. It also returns how long each experiment took.
func renderFigures(ids []string, seed int64, workers int) ([]byte, []time.Duration, error) {
	var buf bytes.Buffer
	walls := make([]time.Duration, len(ids))
	for i, id := range ids {
		e, err := bench.ByID(id)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		t, err := e.Run(bench.Options{Quick: true, Seed: seed, Workers: workers})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", id, err)
		}
		walls[i] = time.Since(t0)
		t.Render(&buf)
	}
	return buf.Bytes(), walls, nil
}

var figureIDs = []string{"fig6", "fig8a", "ext-evict", "ext-init"}

// figuresQuick takes its seeds from fresh, which is freshFigSeed except in
// the negative test that reuses one.
func figuresQuick(sz size, fresh func(base int64) int64) *workload {
	w := &workload{name: "figures_quick"}
	ids := figureIDs
	if sz == toy {
		ids = []string{"fig7", "fig8a"} // fig7 is the cheapest experiment that goes through the NPB cache
	}
	var base int64                      // the run's seeds count up from here
	var walls, refWalls []time.Duration // per experiment: latest repetition, warm-up
	w.setup = func(s int64) (uint64, error) {
		base = s << 20
		// The rendered tables do not depend on the seed (the simulation draws
		// no random numbers outside fault plans), so the Workers=1 reference
		// neither needs nor may share a repetition's seed.
		want, _, err := renderFigures(ids, fresh(base), 1)
		if err != nil {
			return 0, fmt.Errorf("Workers=1 reference: %w", err)
		}
		if err := w.warmUp(); err != nil {
			return 0, err
		}
		refWalls = walls
		if w.ref.sum != hashBytes(want) {
			return 0, fmt.Errorf("tables rendered at Workers=%d differ from the Workers=1 reference", runtime.GOMAXPROCS(0))
		}
		return hashU64(uint64(s)), nil
	}
	w.rep = func(*obs.Bus) (outcome, error) {
		text, ws, err := renderFigures(ids, fresh(base), runtime.GOMAXPROCS(0))
		walls = ws
		return outcome{sum: hashBytes(text)}, err
	}
	w.check = func(o outcome, _ time.Duration) error {
		// An experiment ten times faster than in the warm-up did not run: it
		// was served from the cache. (The whole repetition cannot show this:
		// ext-init is uncached and is most of the wall time.)
		for i, d := range walls {
			if d < refWalls[i]/10 {
				return fmt.Errorf("%s took %v against %v in the warm-up: it hit the NPB cache", ids[i], d, refWalls[i])
			}
		}
		return w.sameAsRef(o)
	}
	return w
}
