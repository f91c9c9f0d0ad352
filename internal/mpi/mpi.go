// Package mpi is a single-threaded, polling-progress MPI subset layered on
// the emulated VIA provider, mirroring the structure of MVICH (MPICH's ADI
// over VIPL) that the paper modifies.
//
// The package provides the pieces the paper's experiments exercise: the four
// point-to-point communication modes with an eager/rendezvous protocol
// switch at 5000 bytes, credit-based flow control over pre-posted per-VI
// receive buffers, MPICH-style (context, source, tag) matching including
// MPI_ANY_SOURCE and MPI_ANY_TAG, nonblocking requests with a weak-progress
// device-check loop, MPICH-1.2 collective algorithms, and pluggable
// connection management (static client-server, static peer-to-peer, or the
// paper's on-demand policy) selected per run.
//
// Programs are Go functions receiving a *Rank; Run launches one simulated
// process per rank on the virtual cluster and returns per-rank resource and
// timing statistics used by the experiment harness.
package mpi

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"viampi/internal/core"
	"viampi/internal/fabric"
	"viampi/internal/obs"
	"viampi/internal/simnet"
	"viampi/internal/via"
)

// Config describes one MPI job on the simulated cluster.
type Config struct {
	Procs int // number of ranks (required)

	// Device selects the VIA personality: "clan" (default), "bvia" or "ib".
	Device string

	// Policy selects connection management: "static-cs", "static-p2p" or
	// "ondemand" (default).
	Policy string

	// WaitMode selects polling (default) or spinwait completion.
	WaitMode via.WaitMode

	// EagerThreshold is the eager/rendezvous protocol switch in bytes
	// (default 5000, the MVICH value the paper cites).
	EagerThreshold int
	// CreditCount is the number of pre-posted receive buffers (and thus
	// flow-control credits) per VI; default 24, which with the 5 kB eager
	// buffers pins ~120 kB per VI as in MVICH.
	CreditCount int

	// DynamicCredits implements the paper's stated future work (§6):
	// "combination of on-demand connection establishment and dynamic
	// flow-control on each VI connection". Each channel starts with
	// initialCredits pre-posted buffers and doubles its pool toward
	// CreditCount as traffic warrants, so the pinned footprint tracks
	// per-peer traffic instead of the worst case.
	DynamicCredits bool

	// MaxVIs caps the VI connections each rank keeps live (0 = unlimited,
	// the paper's behaviour). Only meaningful under the "ondemand" policy:
	// crossing the cap gracefully evicts the least-recently-used idle
	// channel and re-establishes it transparently on next use. The cap is
	// soft — when no channel is quiescent the new connection proceeds.
	MaxVIs int

	// Faults injects deterministic connection-establishment faults (drops,
	// delays, NACKs, unavailability windows); see via.FaultPlan. Setting it
	// bounds each connection attempt (connTimeout), so dropped requests are
	// retried.
	Faults *via.FaultPlan

	Seed     int64
	Deadline simnet.Duration // abort guard on virtual time; 0 = none

	// TuneCost allows experiments to perturb the device model after
	// defaults are applied.
	TuneCost func(*via.CostModel)

	// Obs, when set, is the observability event bus: every layer (simnet,
	// fabric, via, core, mpi) stamps structured events onto it in virtual
	// time, and Run closes the stream with the per-rank phase epilogue.
	// Every report about a run is an obs fold over that stream — subscribe
	// obs.Reports (matrix, call profile, metrics, phases, Perfetto trace) or
	// a single fold's Consume before calling Run. Nil disables all
	// instrumentation at zero per-event cost.
	Obs *obs.Bus

	cost via.CostModel // resolved by normalize
}

// initialCredits is the starting pool size under DynamicCredits: the minimum
// the credit-reservation rule needs, and so the smallest CreditCount allowed.
const initialCredits = 4

func (c *Config) eagerBufSize() int { return hdrSize + c.EagerThreshold }

// initialPool is the number of receive buffers a new channel pre-posts.
func (c *Config) initialPool() int {
	if c.DynamicCredits {
		return initialCredits
	}
	return c.CreditCount
}

// connTimeout bounds one connection attempt before it is cancelled and
// retried with backoff. Only a fault plan arms it: a fault-free run sets no
// timers, so its timing is what the paper's mechanism alone gives.
func (c *Config) connTimeout() simnet.Duration {
	if c.Faults != nil {
		return 2 * simnet.Millisecond
	}
	return 0
}

// normalize applies defaults and resolves the device profile.
func (c *Config) normalize() (fabric.Config, error) {
	if c.Procs <= 0 {
		return fabric.Config{}, fmt.Errorf("mpi: Procs must be positive, got %d", c.Procs)
	}
	if c.Device == "" {
		c.Device = "clan"
	}
	if c.Policy == "" {
		c.Policy = "ondemand"
	}
	if c.EagerThreshold == 0 {
		c.EagerThreshold = 5000
	}
	if c.CreditCount == 0 {
		c.CreditCount = 24
	}
	if c.CreditCount < initialCredits {
		return fabric.Config{}, fmt.Errorf("mpi: CreditCount %d too small (min %d)", c.CreditCount, initialCredits)
	}
	if c.MaxVIs < 0 {
		return fabric.Config{}, fmt.Errorf("mpi: MaxVIs must be non-negative, got %d", c.MaxVIs)
	}
	if c.MaxVIs != 0 && c.Policy != "ondemand" {
		return fabric.Config{}, fmt.Errorf("mpi: MaxVIs requires the ondemand policy, got %q", c.Policy)
	}
	// Ranks fill nodes in block order: four to a node, the paper's quad-CPU
	// PowerEdges, except on Berkeley VIA, whose limitation is one process
	// per node (the paper's Fig 7 and Table 3 runs).
	ppn := 4
	if c.Device == "bvia" {
		ppn = 1
	}
	nodes := (c.Procs + ppn - 1) / ppn
	var fcfg fabric.Config
	switch c.Device {
	case "clan":
		fcfg = via.ClanFabric(nodes, ppn)
		c.cost = via.ClanCost()
	case "bvia":
		fcfg = via.BviaFabric(nodes, ppn)
		c.cost = via.BviaCost()
	case "ib":
		fcfg = via.IbFabric(nodes, ppn)
		c.cost = via.IbCost()
	default:
		return fabric.Config{}, fmt.Errorf("mpi: unknown device %q", c.Device)
	}
	if c.TuneCost != nil {
		c.TuneCost(&c.cost)
	}
	return fcfg, nil
}

// RankStats captures one rank's resource usage and timings — the raw
// material for the paper's Table 2, Table 3 and Figures 6-8.
type RankStats struct {
	Rank          int
	InitTime      simnet.Duration
	AppTime       simnet.Duration // time spent inside the user main
	VisCreated    int
	VisUsed       int
	Utilization   float64 // VisUsed / VisCreated (0 when none created)
	DistinctDests int     // peers this rank addressed user sends to
	PeakChans     int     // high-water mark of simultaneously live channels
	PinnedPeak    int64   // peak registered memory in bytes
	MsgsSent      int64   // VIA-level messages (incl. protocol packets)
	BytesSent     int64
	WaitWakeups   int64
	ComputeTime   simnet.Duration
}

// World is the result of a run.
type World struct {
	Cfg     Config
	Elapsed simnet.Duration // virtual time when the last rank finished
	Ranks   []RankStats
	Net     *via.Network // post-run network counters (drops, discards)
}

// AvgVIs returns the mean VIs created per rank (Table 2's first column).
func (w *World) AvgVIs() float64 {
	t := 0.0
	for _, rs := range w.Ranks {
		t += float64(rs.VisCreated)
	}
	return t / float64(len(w.Ranks))
}

// AvgUtilization returns the mean per-rank resource utilization.
func (w *World) AvgUtilization() float64 {
	t := 0.0
	for _, rs := range w.Ranks {
		t += rs.Utilization
	}
	return t / float64(len(w.Ranks))
}

// AvgInit returns the mean MPI_Init duration (Figure 8 reports the average
// across processes).
func (w *World) AvgInit() simnet.Duration {
	var t simnet.Duration
	for _, rs := range w.Ranks {
		t += rs.InitTime
	}
	return t / simnet.Duration(len(w.Ranks))
}

// TotalPinnedPeak sums peak pinned memory across ranks.
func (w *World) TotalPinnedPeak() int64 {
	var t int64
	for _, rs := range w.Ranks {
		t += rs.PinnedPeak
	}
	return t
}

// newRankHook is a test hook: when set, it sees every Rank as Run makes it,
// before MPI_Init — the one way to watch what Init builds while it builds it.
var newRankHook func(r *Rank)

// Run executes main on cfg.Procs simulated ranks and returns the collected
// statistics. It is the analogue of mpirun: it boots the virtual cluster,
// performs the out-of-band process-table exchange, runs MPI_Init under the
// configured connection policy, invokes main, and finalizes.
func Run(cfg Config, main func(r *Rank)) (*World, error) {
	fcfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	sim := simnet.New(cfg.Seed)
	if cfg.Deadline > 0 {
		sim.SetDeadline(simnet.Time(cfg.Deadline))
	}
	bus := cfg.Obs
	sim.SetObs(bus)
	net := via.NewNetwork(sim, fcfg, cfg.cost)
	if cfg.Faults != nil {
		if cfg.Faults.Seed == 0 {
			cfg.Faults.Seed = cfg.Seed
		}
		net.SetFaults(cfg.Faults)
	}

	n := cfg.Procs
	world := &World{Cfg: cfg, Ranks: make([]RankStats, n), Net: net}
	addrs := make([]via.Addr, n)
	worldRanks := identity(n)       // one identity table shared by every rank's world comm
	epRanks := make(map[int]int, n) // shared endpoint→rank table, built by the last opener
	opened := 0
	var waiting []*simnet.Proc // ranks parked on the startup barrier

	for i := 0; i < n; i++ {
		i := i
		// Not fmt: its printer pool is refilled at random under -race and
		// after every GC, which the allocation rails would count as the run's.
		// One allocation a name, as Sprintf's was.
		var name [24]byte
		sim.Spawn(string(strconv.AppendInt(append(name[:0], "rank"...), int64(i), 10)), 0, func(p *simnet.Proc) {
			port, err := net.Open(p)
			if err != nil {
				sim.Failf("mpi: rank %d open: %v", i, err)
				return
			}
			addrs[i] = port.Addr()
			opened++
			if opened < n {
				// Startup barrier: the out-of-band bootstrap may not begin
				// until every rank has published its address. Early arrivals
				// park once and the last opener wakes them all — O(1)
				// simulator events per rank regardless of how staggered the
				// opens are, where the old 5µs sleep-poll loop burned
				// O(wait/5µs) events per waiting rank. The release lands on
				// the +5µs instant the poll grid used, so virtual timings
				// (and every committed artifact derived from them) are
				// unchanged.
				waiting = append(waiting, p)
				p.Park()
			} else {
				for w, a := range addrs {
					epRanks[a.Ep] = w
				}
				for _, q := range waiting {
					q.WakeAfter(5 * simnet.Microsecond)
				}
			}
			r := &Rank{
				proc: p, port: port, cq: *via.NewCQ(port), cfg: &cfg,
				rank: i, size: n,
				addrs: addrs,
			}
			r.ctxCounter = 2 // world uses contexts 0 (pt2pt) and 1 (collective)
			r.bus = sim.Obs()
			if r.bus != nil {
				r.phases = &obs.Phases{}
				r.prof = &profiler{proc: p, rank: int32(i), bus: r.bus}
				r.sendSeq = make(map[int]int64)
				r.recvSeq = make(map[int]int64)
			}
			if newRankHook != nil {
				newRankHook(r)
			}

			r.bootstrap(addrs)

			mcfg := core.Config{
				Rank: i, Size: n, Port: port, Addrs: addrs, Mode: cfg.WaitMode,
				EpRanks:        epRanks,
				CQ:             &r.cq,
				Reserve:        r.reserve,
				PrepareChannel: r.prepareChannel,
				OnChannelUp:    r.onChannelUp,
				MaxVIs:         cfg.MaxVIs,
				CanEvict:       r.canEvict,
				StartEvict:     r.startEvict,
				ConnTimeout:    cfg.connTimeout(),
			}
			mgr, err := core.NewManager(cfg.Policy, mcfg)
			if err != nil {
				sim.Failf("mpi: rank %d: %v", i, err)
				return
			}
			r.mgr = mgr
			connStart := p.Now()
			if err := mgr.Init(); err != nil {
				sim.Failf("mpi: rank %d init: %v", i, err)
				return
			}
			r.phases.Add(obs.PhaseConnect, int64(p.Now().Sub(connStart)))
			r.initTime = simnet.Duration(p.Now())
			r.world = newComm(r, worldRanks, 0)

			r.appStart = p.Now()
			main(r)
			appTime := p.Now().Sub(r.appStart)

			r.finalize()

			st := port.Stats()
			// A rank that never created a VI has used none of nothing:
			// report 0, not the perfect 1.0 the old default claimed (it
			// inflated AvgUtilization for worlds with idle ranks).
			util := 0.0
			if st.VisCreated > 0 {
				util = float64(port.VisUsed()) / float64(st.VisCreated)
			}
			world.Ranks[i] = RankStats{
				Rank:          i,
				InitTime:      r.initTime,
				AppTime:       appTime,
				VisCreated:    st.VisCreated,
				VisUsed:       port.VisUsed(),
				Utilization:   util,
				DistinctDests: r.distinctDests(),
				PeakChans:     r.peakLive,
				PinnedPeak:    port.Memory().PeakPinned(),
				MsgsSent:      st.MsgsSent,
				BytesSent:     st.BytesSent,
				WaitWakeups:   st.WaitWakeups,
				ComputeTime:   p.BusyTime(),
			}
			if r.bus != nil {
				// Run-epilogue phase records: one event per phase with the
				// rank's charged nanoseconds, so a capture bundle carries
				// everything the phase table needs (the "other" residual is
				// computed at render time from Elapsed, not stored).
				for ph := obs.PhaseCompute; ph < obs.NumPhases; ph++ {
					r.bus.Emit(obs.Event{T: int64(p.Now()), Kind: obs.EvPhase, Rank: int32(i), Peer: -1,
						A: int64(ph), B: r.phases.Ns[ph], Name: ph.String()})
				}
			}
		})
	}
	if err := sim.Run(); err != nil {
		return nil, err
	}
	world.Elapsed = simnet.Duration(sim.Now())
	// Close the observable record: the run's elapsed virtual time and world
	// size, emitted exactly once after the last rank finishes.
	bus.Emit(obs.Event{T: int64(world.Elapsed), Kind: obs.EvRunEnd, Rank: -1, Peer: -1, A: int64(n)})
	if net.DroppedNoDescriptor > 0 {
		return world, fmt.Errorf("mpi: flow control violated: %d receives had no descriptor", net.DroppedNoDescriptor)
	}
	return world, nil
}

func identity(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

// bootstrap is the out-of-band process-table handshake (MVICH got this from
// mpirun over TCP): every rank reports to rank 0, which releases the job.
func (r *Rank) bootstrap(addrs []via.Addr) {
	const (
		helloTag = 0x68 // 'h'
		goTag    = 0x67 // 'g'
	)
	msg := make([]byte, 5)
	binary.LittleEndian.PutUint32(msg[1:], uint32(r.rank))
	if r.rank == 0 {
		seen := 1
		for seen < r.size {
			from, data, ok := r.port.RecvOob()
			if !ok {
				r.port.WaitActivity(r.cfg.WaitMode)
				continue
			}
			_ = from
			if data[0] == helloTag {
				seen++
			}
		}
		for i := 1; i < r.size; i++ {
			r.port.SendOob(addrs[i], []byte{goTag})
		}
		return
	}
	msg[0] = helloTag
	r.port.SendOob(addrs[0], msg)
	for {
		_, data, ok := r.port.RecvOob()
		if ok && data[0] == goTag {
			return
		}
		if !ok {
			r.port.WaitActivity(r.cfg.WaitMode)
		}
	}
}

// finalize drains outstanding protocol obligations, runs an out-of-band
// barrier (so every rank keeps making VIA progress until all are done — no
// VIA connections are created by MPI_Finalize itself), and tears down.
func (r *Rank) finalize() {
	if r.finalized {
		return
	}
	r.finalized = true

	// Phase 1: drain local obligations, making progress for peers too. A
	// Bsend, which nothing waits on, is in one of these queues until it is out.
	r.waitProgress(func() bool {
		if len(r.sendReqs) > 0 || len(r.recvReqs) > 0 {
			return false
		}
		for _, ch := range r.mgr.Channels() {
			if cs := ch.UserData.(*chanState); cs.flowQ.head != nil || cs.closing || cs.pendingClose.head != nil {
				return false
			}
		}
		return true
	})

	// Phase 2: out-of-band barrier with continued VIA progress.
	const (
		finTag  = 0x66 // 'f'
		doneTag = 0x64 // 'd'
	)
	addrs := r.addrs
	if r.rank == 0 {
		seen := 1
		for seen < r.size {
			r.progress()
			if _, data, ok := r.port.RecvOob(); ok {
				if data[0] == finTag {
					seen++
				}
				continue
			}
			r.port.WaitActivityTimeout(r.cfg.WaitMode, 200*simnet.Microsecond)
		}
		for i := 1; i < r.size; i++ {
			r.port.SendOob(addrs[i], []byte{doneTag})
		}
	} else {
		r.port.SendOob(addrs[0], []byte{finTag})
		for {
			r.progress()
			if _, data, ok := r.port.RecvOob(); ok && data[0] == doneTag {
				break
			}
			r.port.WaitActivityTimeout(r.cfg.WaitMode, 200*simnet.Microsecond)
		}
	}
}
