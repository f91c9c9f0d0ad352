package benchmark

// The two ladders of the traced pass. Each rung drives the same traffic —
// a two-endpoint round trip, or an establish-then-close cycle — through one
// more layer's public API than the rung below, so a layer's own cost is its
// rung minus the one under it.

import (
	"fmt"
	"io"
	"runtime"

	"viampi/internal/bench"
	"viampi/internal/core"
	"viampi/internal/fabric"
	"viampi/internal/mpi"
	"viampi/internal/obs"
	"viampi/internal/obs/capture"
	"viampi/internal/simnet"
	"viampi/internal/via"
)

// pair boots two simulated processes that each open a port on a two-node
// cLAN network, waits until both addresses are published, and runs body on
// each. It returns the events the simulation dispatched.
func pair(body func(p *simnet.Proc, port *via.Port, me int, addrs []via.Addr) error) (uint64, error) {
	s := simnet.New(1)
	s.SetDeadline(simnet.Time(deadline))
	net := via.NewNetwork(s, via.ClanFabric(2, 1), via.ClanCost())
	addrs := make([]via.Addr, 2)
	ready := 0
	for me := 0; me < 2; me++ {
		s.Spawn(fmt.Sprintf("end%d", me), 0, func(p *simnet.Proc) {
			port, err := net.Open(p)
			if err != nil {
				s.Failf("open: %v", err)
				return
			}
			addrs[me] = port.Addr()
			ready++
			for ready < 2 {
				p.Sleep(simnet.Microsecond)
			}
			if err := body(p, port, me, addrs); err != nil {
				s.Failf("end %d: %v", me, err)
			}
		})
	}
	err := s.Run()
	return s.EventCount, err
}

// bounce is n round trips seen from one end: end 0 serves, end 1 returns.
func bounce(n, me int, send, recv func() error) error {
	for i := 0; i < n; i++ {
		if me == 0 {
			if err := send(); err != nil {
				return err
			}
		}
		if err := recv(); err != nil {
			return err
		}
		if me == 1 {
			if err := send(); err != nil {
				return err
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Message ladder: n round trips of size bytes.

// simnetRT is the bottom rung: two processes waking each other, no network.
func simnetRT(n, _ int) (uint64, error) {
	r, err := bench.SimCoreParkWake(n)
	return r.Events, err
}

// fabricRT adds the frame model: Cluster.Send plus a handler that wakes the
// receiving process.
func fabricRT(n, size int) (uint64, error) {
	s := simnet.New(1)
	c := fabric.New(s, via.ClanFabric(2, 1))
	wire := size + via.ClanCost().FrameHeaderBytes
	var procs [2]*simnet.Proc
	for i := range procs {
		if _, err := c.Attach(func(fabric.Frame) { procs[i].Wake() }); err != nil {
			return 0, err
		}
	}
	procs[0] = s.Spawn("a", 0, func(p *simnet.Proc) {
		for i := 0; i < n; i++ {
			c.Send(fabric.Frame{Src: 0, Dst: 1, Size: wire}, 0)
			p.Park()
		}
	})
	procs[1] = s.Spawn("b", 0, func(p *simnet.Proc) {
		for i := 0; i < n; i++ {
			p.Park()
			c.Send(fabric.Frame{Src: 1, Dst: 0, Size: wire}, 0)
		}
	})
	err := s.Run()
	return s.EventCount, err
}

// viaRT adds descriptors: a connected VI pair, PostRecv/PostSend and a
// polling RecvWait per message.
func viaRT(n, size int) (uint64, error) {
	return pair(func(_ *simnet.Proc, port *via.Port, me int, addrs []via.Addr) error {
		vi, err := port.CreateVi()
		if err != nil {
			return err
		}
		if _, err := port.Memory().Register(int64(2 * size)); err != nil {
			return err
		}
		rd := &via.Descriptor{Buf: make([]byte, size)}
		sd := &via.Descriptor{Buf: make([]byte, size), Len: size}
		// One receive is always posted before the peer can send: each side
		// re-posts before it answers.
		if err := vi.PostRecv(rd); err != nil {
			return err
		}
		if err := port.ConnectPeerRequest(vi, addrs[1-me], 1); err != nil {
			return err
		}
		if err := port.ConnectPeerWait(vi, via.WaitPoll, -1); err != nil {
			return err
		}
		recv := func() error {
			d, err := vi.RecvWait(via.WaitPoll, -1)
			if err != nil {
				return err
			}
			return vi.PostRecv(d)
		}
		send := func() error {
			for vi.SendDone() != nil {
			}
			return vi.PostSend(sd)
		}
		return bounce(n, me, send, recv)
	})
}

// eagerPool pre-posts the receive pool on a fresh channel the way the MPI
// layer does: 24 buffers of 5 kB, registered as one region.
func eagerPool(port *via.Port) func(ch *core.Channel) {
	const credits, bufSize = 24, 5 << 10
	return func(ch *core.Channel) {
		sim := port.Owner().Sim()
		if _, err := port.Memory().Register(credits * bufSize); err != nil {
			sim.Failf("pin eager pool: %v", err)
			return
		}
		for i := 0; i < credits; i++ {
			if err := ch.Vi.PostRecv(&via.Descriptor{Buf: make([]byte, bufSize)}); err != nil {
				sim.Failf("pre-post: %v", err)
				return
			}
		}
	}
}

// awaitUp polls the manager until the channel to peer is established.
func awaitUp(mgr *core.OnDemand, port *via.Port, peer int) *core.Channel {
	for {
		mgr.Poll()
		if ch := mgr.PeekChannel(peer); ch != nil && ch.Up {
			return ch
		}
		port.WaitActivity(via.WaitPoll)
	}
}

// coreRT adds the connection manager: every message looks its channel up
// through OnDemand.Channel, stamps it, and polls connection progress around
// the same via calls as the rung below.
func coreRT(n, size int) (uint64, error) {
	return pair(func(p *simnet.Proc, port *via.Port, me int, addrs []via.Addr) error {
		peer := 1 - me
		mgr, err := core.NewOnDemand(core.Config{
			Rank: me, Size: 2, Port: port, Addrs: addrs, Mode: via.WaitPoll,
			PrepareChannel: eagerPool(port),
		})
		if err != nil {
			return err
		}
		sd := &via.Descriptor{Buf: make([]byte, size), Len: size}
		send := func() error {
			ch, err := mgr.Channel(peer)
			if err != nil {
				return err
			}
			ch.Touch(p.Now())
			if !ch.Up {
				awaitUp(mgr, port, peer)
			}
			for ch.Vi.SendDone() != nil {
			}
			return ch.Vi.PostSend(sd)
		}
		recv := func() error {
			for {
				mgr.Poll()
				if ch := mgr.PeekChannel(peer); ch != nil {
					if d := ch.Vi.RecvDone(); d != nil {
						ch.Touch(p.Now())
						return ch.Vi.PostRecv(d)
					}
				}
				port.WaitActivity(via.WaitPoll)
			}
		}
		return bounce(n, me, send, recv)
	})
}

// mpiRT is the whole stack with observability off: Comm.Send/Recv.
func mpiRT(n, size int) (uint64, error) { return mpiRTWith(n, size, nil) }

// ladderPattern is the payload pattern of the mpi rungs, generated once so
// the rungs time the stack and not the generator.
var ladderPattern []uint64

func mpiRTWith(n, size int, bus *obs.Bus) (uint64, error) {
	if len(ladderPattern) < n {
		ladderPattern = seededPattern(1, n)
	}
	w, err := pingpong(ladderPattern[:n], size, 1, bus)
	if err != nil {
		return 0, err
	}
	return w.Net.Sim().EventCount, nil
}

// mpiRTOneP is the mpi rung with the Go scheduler held to one P: a
// strictly sequential simulation should not care, so the distance to mpi.rt_ns
// is what goroutine migration between OS threads costs (ROADMAP item 1a).
func mpiRTOneP(n, size int) (uint64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return mpiRT(n, size)
}

// obsRT is the mpi rung with the bus on and a Collector folding every event.
func obsRT(n, size int) (uint64, error) {
	bus := obs.NewBus()
	obs.NewCollector(obs.NewRegistry()).Attach(bus)
	return mpiRTWith(n, size, bus)
}

// captureRT is the obs rung plus a capture.Writer encoding every event.
func captureRT(n, size int) (uint64, error) {
	bus := obs.NewBus()
	obs.NewCollector(obs.NewRegistry()).Attach(bus)
	cw, err := capture.NewWriter(io.Discard, capture.Header{World: 2, Device: "clan", Policy: "ondemand"})
	if err != nil {
		return 0, err
	}
	cw.Attach(bus)
	events, err := mpiRTWith(n, size, bus)
	if cerr := cw.Close(); err == nil {
		err = cerr
	}
	return events, err
}

// rung is one boundary of a ladder, named after the module it adds.
type rung struct {
	layer string
	run   func(n, size int) (events uint64, err error)
}

var messageLadder = []rung{
	{"simnet", simnetRT}, {"fabric", fabricRT}, {"via", viaRT}, {"core", coreRT},
	{"mpi", mpiRT}, {"obs", obsRT}, {"capture", captureRT},
}

// ---------------------------------------------------------------------------
// Connection ladder: n establish-then-close cycles.

// viaConn is the bare handshake: CreateVi, crossing peer requests, wait,
// Close. End 0 closes first; end 1 closes once it has seen the disconnect,
// which keeps the two ends in lockstep without any extra message.
func viaConn(n, _ int) (uint64, error) {
	return pair(func(_ *simnet.Proc, port *via.Port, me int, addrs []via.Addr) error {
		for i := 0; i < n; i++ {
			vi, err := port.CreateVi()
			if err != nil {
				return err
			}
			if err := port.ConnectPeerRequest(vi, addrs[1-me], uint64(i+1)); err != nil {
				return err
			}
			if err := port.ConnectPeerWait(vi, via.WaitPoll, -1); err != nil {
				return err
			}
			if me == 1 {
				for vi.State() == via.ViConnected {
					port.WaitActivity(via.WaitPoll)
				}
			}
			vi.Close()
		}
		return nil
	})
}

// coreConn is the same cycle through the connection manager: Channel, Poll
// until Up, close, ReleaseChannel — with the eager pool pre-posted on every
// fresh channel as the MPI layer does.
func coreConn(n, _ int) (uint64, error) {
	return pair(func(_ *simnet.Proc, port *via.Port, me int, addrs []via.Addr) error {
		peer := 1 - me
		mgr, err := core.NewOnDemand(core.Config{
			Rank: me, Size: 2, Port: port, Addrs: addrs, Mode: via.WaitPoll,
			PrepareChannel: eagerPool(port),
		})
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if _, err := mgr.Channel(peer); err != nil {
				return err
			}
			ch := awaitUp(mgr, port, peer)
			if me == 1 {
				// The peer's DISC must release this channel before its next
				// request is polled, or the manager rejects the request as stale.
				for ch.Vi.State() == via.ViConnected {
					port.WaitActivity(via.WaitPoll)
				}
			}
			ch.Vi.Close()
			mgr.ReleaseChannel(peer)
		}
		return nil
	})
}

// mpiConn makes every message a reconnect: rank 0 may keep one VI and
// alternates between two partners, so each send evicts the other channel
// (BYE handshake, teardown) and establishes a fresh one. The reported cycle
// count is the VIs rank 0 actually created.
func mpiConn(n, _ int) (events uint64, err error) {
	w, err := mpi.Run(mpi.Config{Procs: 3, MaxVIs: 1, Seed: 1, Deadline: deadline}, func(r *mpi.Rank) {
		c := r.World()
		buf := make([]byte, 8)
		fail := func(err error) { r.Proc().Sim().Failf("rank %d: %v", r.Rank(), err) }
		if r.Rank() == 0 {
			for i := 0; i < n; i++ {
				dst := 1 + i%2
				if err := c.Send(dst, 0, buf); err != nil {
					fail(err)
					return
				}
				if _, err := c.Recv(buf, dst, 0); err != nil {
					fail(err)
					return
				}
			}
			return
		}
		for i := r.Rank() - 1; i < n; i += 2 {
			// Probe first: a posted receive would connect to rank 0 at once
			// and hold the channel open; a probing partner stays passive.
			c.Probe(0, 0)
			if _, err := c.Recv(buf, 0, 0); err != nil {
				fail(err)
				return
			}
			if err := c.Send(0, 0, buf); err != nil {
				fail(err)
				return
			}
		}
	})
	if err != nil {
		return 0, err
	}
	if got := w.Ranks[0].VisCreated; got != n {
		return 0, fmt.Errorf("rank 0 created %d VIs over %d messages: not every message reconnected", got, n)
	}
	return w.Net.Sim().EventCount, nil
}

var connLadder = []rung{{"via", viaConn}, {"core", coreConn}, {"mpi", mpiConn}}
