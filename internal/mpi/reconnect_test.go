package mpi

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"viampi/internal/obs"
	"viampi/internal/simnet"
	"viampi/internal/via"
)

// What a channel builds at prepareChannel — its own state, the core.Channel,
// the VI's work queues — is recycled from one connection to the next, its
// eager pool is a registration and a count, and the descriptor and buffer a
// message lands in are the port's, lent for as long as the message is unread;
// these tests hold what that can break: an allocation creeping back into the
// reconnect cycle, a landing buffer with two owners, a descriptor lost or
// returned twice, and the pinned-memory accounting, which must not know that
// the host memory behind it is reused — or that most of it is never there.

// reconnects runs n messages from rank 0 to two alternating partners under a
// one-VI cap, so that every message evicts one channel (BYE handshake,
// teardown) and establishes the other: n reconnect cycles.
func reconnects(t *testing.T, n int) {
	cfg := Config{Procs: 3, MaxVIs: 1, Seed: 1, Deadline: within(simnet.Duration(n) * 550 * simnet.Microsecond)}
	w, err := Run(cfg, func(r *Rank) {
		c := r.World()
		buf := make([]byte, 8)
		if r.Rank() == 0 {
			for i := 0; i < n; i++ {
				dst := 1 + i%2
				if err := c.Send(dst, 0, buf); err != nil {
					r.Abort(1, err.Error())
				}
				if _, err := c.Recv(buf, dst, 0); err != nil {
					r.Abort(1, err.Error())
				}
			}
			return
		}
		for i := r.Rank() - 1; i < n; i += 2 {
			// Probe first: a posted receive would connect to rank 0 at once
			// and hold the channel open; a probing partner stays passive.
			c.Probe(0, 0)
			if _, err := c.Recv(buf, 0, 0); err != nil {
				r.Abort(1, err.Error())
			}
			if err := c.Send(0, 0, buf); err != nil {
				r.Abort(1, err.Error())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Ranks[0].VisCreated; got != n {
		t.Fatalf("rank 0 created %d VIs over %d messages: not every message reconnected", got, n)
	}
}

// The allocation rail of the connection path, by difference between two run
// lengths of one simulation so that boot cancels: a reconnect cycle allocates
// nothing. The two VI endpoints are reissued from their ports' free lists, the
// control packets a teardown has not reaped come back to the rank's, and the
// message that beats its receive — the probing partner's always does — waits
// in an unexpected-queue entry off the rank's free list.
func TestReconnectCycleAllocs(t *testing.T) {
	const n = 100
	short := testing.AllocsPerRun(5, func() { reconnects(t, n) })
	long := testing.AllocsPerRun(5, func() { reconnects(t, 10*n) })
	if perCycle := (long - short) / (9 * n); perCycle > 0.01 {
		t.Errorf("%.3f allocations per reconnect cycle (%v for %d, %v for %d), want 0", perCycle, short, n, long, 10*n)
	}
}

// landingStock returns the network's free landing descriptors, the number it
// has made, and the number out on loan, summed over its ports.
func landingStock(net *via.Network) (free []*via.Descriptor, made, out int) {
	free, made = net.Landing()
	for _, p := range net.Ports() {
		out += p.LandingOut()
	}
	return free, made, out
}

// distinct reports whether no descriptor is on a free list twice.
func distinct(free []*via.Descriptor) bool {
	seen := make(map[*via.Descriptor]bool, len(free))
	for _, d := range free {
		if seen[d] {
			return false
		}
		seen[d] = true
	}
	return true
}

// A completion that a closed VI left in the CQ must be read as the message
// left it, and its descriptor must come back exactly once. Ranks 0 and 1
// evict each other at the same instant (crossing BYEs); rank 1 polls, adopts
// rank 0's BYE as the acknowledgement and closes, while rank 0 sleeps: when
// it wakes, rank 1's BYE is a CQ entry, completed, on a VI whose DISC has
// arrived too. The teardown scan closes that VI before the drain reaches the
// entry. Had Close taken the completed descriptor back as well, the port's
// free list would hold it twice (and the next message to claim it would erase
// XferLen under the entry: "arrival on unknown VI"). The stock is the
// network's, so the checks read it whole: what is free and what the ports have
// out add up to what it made, which is the network's peak out.
//
// The teardown also finds rank 0's own BYE sent and not yet reaped: it must
// take the descriptor back, not let Close drop it with its wire buffer.
//
// In the second case rank 0 opens a channel to rank 3 between the teardown
// scan and the drain, and the port reissues the closed VI to it. The entry
// was made for the VI's earlier life: it must still take the unknown-VI path,
// not be read as a BYE from rank 3 (which would open a teardown on a channel
// still connecting).
func TestStaleCQEntryAfterTeardown(t *testing.T) {
	for _, reissue := range []bool{false, true} {
		t.Run(fmt.Sprintf("reissued=%v", reissue), func(t *testing.T) { staleCQEntryAfterTeardown(t, reissue) })
	}
}

func staleCQEntryAfterTeardown(t *testing.T, reissue bool) {
	const credits = 4
	cfg := Config{Procs: 4, MaxVIs: 1, CreditCount: credits, Deadline: within(2 * simnet.Millisecond)}
	_, err := Run(cfg, func(r *Rank) {
		c := r.World()
		me := r.Rank()
		in, out := make([]byte, 8), make([]byte, 8)
		fail := func(format string, args ...any) { r.Abort(1, fmt.Sprintf(format, args...)) }
		if me >= 2 {
			// Probe does not connect (a specific-source Recv would): ranks 0
			// and 1 alone decide when these channels exist.
			c.Probe(me-2, 0)
			if _, err := c.Recv(in, me-2, 0); err != nil {
				fail("%v", err)
			}
			return
		}
		if _, err := c.Sendrecv(1-me, 0, out, 1-me, 0, in); err != nil {
			fail("%v", err)
		}
		// Let the NIC accept the send and reap it: the channel is quiescent.
		r.Compute(10e-6)
		c.Iprobe(1-me, 1)
		if me == 1 {
			if err := c.Send(3, 0, out); err != nil {
				fail("%v", err)
			}
			return
		}
		closing := r.mgr.PeekChannel(1).Vi
		if _, err := r.channel(2); err != nil { // evicts the channel to rank 1
			fail("%v", err)
		}
		r.Proc().Sleep(100 * simnet.Microsecond)
		net := r.port.Network()
		peak := r.port.Stats().LandingPeak // no two messages were ever unread at once here
		if free, made, out := landingStock(net); r.cq.Len() != 1 || peak != 1 || r.port.LandingOut() != 1 ||
			len(free)+out != made || made != net.LandingPeak {
			fail("before the pass: %d CQ entries, port peak %d, %d out on the port; the network: %d free, %d out, %d made, peak %d; want rank 1's BYE alone, in one descriptor out, and free plus out the peak made",
				r.cq.Len(), peak, r.port.LandingOut(), len(free), out, made, net.LandingPeak)
		}
		unreaped := slices.Collect(closing.PostedSends)
		if len(unreaped) == 0 {
			fail("rank 0's BYE was reaped before the teardown: the case did not happen")
		}
		var fresh *chanState
		if reissue {
			r.adoptDisconnects() // closes the VI the entry was made on
			cs, err := r.channel(3)
			if err != nil {
				fail("%v", err)
			}
			if fresh = cs; fresh.ch.Vi != closing {
				fail("the channel to rank 3 has a VI of its own: the closed one was not reissued")
			}
			// The slot now names the channel to rank 3, so the entry left by
			// the VI's last life must never reach the slot table with its VI.
			if r.chanOf(closing) != fresh || r.chanOf(nil) != nil {
				fail("slot table: the reissued VI does not map to the channel to rank 3 alone")
			}
		} else if r.chanOf(closing) == nil {
			fail("slot table: the VI is not torn down yet, but its slot is empty")
		}
		r.progressStep()
		// The frame read, the entry's descriptor is the network's again, once;
		// the closed channel's other receives were a count and left nothing.
		if free, made, out := landingStock(net); r.cq.Len() != 0 || r.port.LandingOut() != 0 || !distinct(free) ||
			len(free)+out != made || made != net.LandingPeak {
			fail("after the pass: %d CQ entries, %d out on the port; the network: %d free (distinct: %v), %d out, %d made, peak %d; want 0, 0, each once, and free plus out the peak made",
				r.cq.Len(), r.port.LandingOut(), len(free), distinct(free), out, made, net.LandingPeak)
		}
		if fresh != nil && (fresh.closing || parkedOn(fresh) != 0) {
			fail("the channel to rank 3 took rank 1's BYE for its own")
		}
		if fresh == nil && r.chanOf(closing) != nil {
			fail("slot table: the torn-down VI still maps to a channel")
		}
		for _, d := range unreaped {
			// Back on the free list, or already off it again for a new packet.
			kept := slices.Contains(freeDescs(r.freeSends), d)
			for _, cs := range liveChans(r) {
				kept = kept || slices.Contains(slices.Collect(cs.ch.Vi.PostedSends), d)
			}
			if !kept {
				fail("a send descriptor the teardown found unreaped is lost: Close dropped it")
			}
		}
		if err := c.Send(2, 0, out); err != nil {
			fail("%v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Every port numbers its VIs' slots from 0, so a VI that is not this rank's
// can sit at a slot where this rank keeps a live channel: the slot table must
// answer only for the VI the channel is on.
func TestChanOfAnswersOnlyItsVI(t *testing.T) {
	var vis [2]*via.VI
	cfg := Config{Procs: 2, Policy: "static-p2p", CreditCount: 4, Deadline: within(simnet.Millisecond)}
	_, err := Run(cfg, func(r *Rank) {
		me := r.Rank()
		vis[me] = r.mgr.PeekChannel(1 - me).Vi
		if err := r.World().Barrier(); err != nil {
			r.Abort(1, err.Error())
		}
		own, other := vis[me], vis[1-me]
		if own.Slot() != other.Slot() {
			r.Abort(1, "the two ranks' VIs are at different slots: the case did not happen")
		}
		if r.chanOf(own) == nil || r.chanOf(other) != nil {
			r.Abort(1, fmt.Sprintf("slot %d: own VI finds %p, the peer's finds %p; want a channel and nil",
				own.Slot(), r.chanOf(own), r.chanOf(other)))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The accounting is the paper's result; the host memory behind it is not.
// A capped run — every phase of a shift pattern evicts and reconnects — must
// report the pinned_bytes gauge stream, PinnedPeak, event count and end time
// it reported when every pool receive was a descriptor of its own, made fresh
// at every connection (pinned from the commit before the counted pool, where
// recycled and fresh pools read alike).
func TestPoolRecyclingKeepsAccounting(t *testing.T) {
	type gauge struct {
		t    int64
		rank int32
		v    int64
	}
	var gauges []gauge
	bus := obs.NewBus()
	bus.Subscribe(func(e obs.Event) {
		if e.Kind == obs.EvGauge && e.Name == "pinned_bytes" {
			gauges = append(gauges, gauge{e.T, e.Rank, e.A})
		}
	})
	const np = 6
	cfg := Config{Procs: np, MaxVIs: 2, DynamicCredits: true, Seed: 7, Obs: bus, Deadline: within(4 * simnet.Millisecond)}
	w, err := Run(cfg, func(r *Rank) {
		c := r.World()
		in, out := make([]byte, 64), make([]byte, 64)
		for ph := 1; ph < np; ph++ {
			for i := 0; i < 8; i++ {
				if _, err := c.Sendrecv((r.Rank()+ph)%np, ph, out, (r.Rank()-ph+np)%np, ph, in); err != nil {
					r.Abort(1, err.Error())
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var peaks []int64
	vis := 0
	for _, rs := range w.Ranks {
		peaks = append(peaks, rs.PinnedPeak)
		vis += rs.VisCreated
	}
	stream := fnv.New64a()
	fmt.Fprint(stream, gauges)
	got := fmt.Sprintf("%d gauges %#x, peaks %v, %d events, end %d ns, %d VIs",
		len(gauges), stream.Sum64(), peaks, w.Net.Sim().EventCount, int64(w.Elapsed), vis)
	const want = "142 gauges 0x583c67cbe8f04c48, peaks [141344 141344 141344 181728 141344 141344], 3542 events, end 3774835 ns, 54 VIs"
	if got != want {
		t.Errorf("accounting of the capped run moved:\ngot  %s\nwant %s", got, want)
	}
}

// poolMsg is message i that src sends dst under tag: size bytes, none of them
// the scribbler's.
func poolMsg(src, dst, tag, i, size int) []byte {
	b := make([]byte, size)
	for k := range b {
		b[k] = byte(src*89+dst*53+tag*17+i*31+k*7) & 0x7f
	}
	return b
}

// A scribbler that overwrites every free landing descriptor of every port —
// its buffer, to its capacity, and its Status, XferLen and UserPtr — every
// 100 ns and at every event on the bus — any descriptor on a port's free list
// while a VI, a CQ entry or handlePacket still reads it delivers a damaged
// message, and a message-receive event is stamped inside handlePacket before
// the payload is copied out, so giving the descriptor back ahead of
// handlePacket instead of after it fails every world here — while
// four ranks under a one-VI cap go through each way a pool receive travels:
// crossing BYEs (both ends evict each other at once), an eviction the peer
// accepts and one it refuses (BYE_NACK: a rendezvous is in flight), eager
// messages that wait in the unexpected queue while their channel is torn down
// and reconnected, and a burst that runs the credits out and, with dynamic
// credits, grows the pool. The static worlds tear nothing
// down; every rank there opens by filling every peer's pool with eager
// messages as long as a buffer, so that each port has a buffer out for every
// message landed and not yet read, and the ones already read and handed back
// are overwritten beside them; under static-cs rank 0 does so while the
// higher ranks are still building their meshes.
func TestPoolRecyclingKeepsPayloads(t *testing.T) {
	for _, cfg := range []Config{
		{Policy: "ondemand", MaxVIs: 1, CreditCount: 4},
		{Policy: "ondemand", MaxVIs: 1, CreditCount: 16, DynamicCredits: true},
		{Policy: "static-p2p", CreditCount: 4},
		{Policy: "static-cs", CreditCount: 4},
	} {
		name := fmt.Sprintf("credits=%d,dynamic=%v", cfg.CreditCount, cfg.DynamicCredits)
		if cfg.Policy != "ondemand" {
			name = cfg.Policy + "," + name
		}
		t.Run(name, func(t *testing.T) { poolRecyclingKeepsPayloads(t, cfg) })
	}
}

func poolRecyclingKeepsPayloads(t *testing.T, cfg Config) {
	const (
		np    = 4
		size  = 200
		big   = 1000 // above the eager threshold: rendezvous
		burst = 12
	)
	cfg.Procs, cfg.EagerThreshold, cfg.Deadline = np, 256, within(3*simnet.Millisecond)
	var (
		ranks    [np]*Rank
		running  = np
		crossing bool // both ends of a channel closing as evictors at once
		nacked   bool // an evictor's channel seen open again on the same VI, in the same life (evicting: its id then)
		parked   bool // an unexpected eager message whose channel is gone
		grew     bool // a pool beyond its initial size
		scribble int  // buffers overwritten
		beside   bool // a port's free buffers overwritten while it had others out, holding messages
		evicting = map[*via.VI]int{}
	)
	tick := func() {
		var net *via.Network
		for _, r := range ranks {
			if r != nil {
				net = r.port.Network()
				break
			}
		}
		if net == nil {
			return
		}
		free, _ := net.Landing()
		if !distinct(free) {
			net.Sim().Failf("a landing descriptor is on the network's free list twice")
		}
		for _, d := range free {
			b := d.Buf[:cap(d.Buf)]
			for k := range b {
				b[k] = 0xEE
			}
			d.Status, d.XferLen, d.UserPtr = via.StatusErrorState, 0xEEEE, net
			scribble++
		}
		for _, r := range ranks {
			if r == nil {
				continue
			}
			beside = beside || len(free) > 0 && r.port.LandingOut() > 0
			for _, cs := range liveChans(r) {
				vi := cs.ch.Vi
				if cs.closing && cs.ch.Evicting {
					evicting[vi] = vi.ID()
					if peer := ranks[cs.ch.Rank]; peer != nil {
						for _, pcs := range liveChans(peer) {
							crossing = crossing || pcs.ch.Rank == r.rank && pcs.closing && pcs.ch.Evicting
						}
					}
				}
				id, seen := evicting[vi]
				nacked = nacked || seen && id == vi.ID() && !cs.closing // not a later life of the VI
				grew = grew || cs.posted > initialCredits && r.cfg.DynamicCredits
			}
			for _, u := range r.umq {
				if u.h.kind != pktEager {
					continue
				}
				live := false
				for _, cs := range liveChans(r) {
					live = live || cs.ch.Rank == int(u.h.srcRank)
				}
				parked = parked || !live
			}
		}
	}
	// The scribbler starts with the first rank, before any MPI_Init.
	newRankHook = func(r *Rank) {
		ranks[r.rank] = r
		if r.rank == 0 {
			r.Proc().Sim().Spawn("scribbler", r.Proc().Now(), func(p *simnet.Proc) {
				for running > 0 {
					tick()
					p.Sleep(100)
				}
			})
		}
	}
	defer func() { newRankHook = nil }()
	cfg.Obs = obs.NewBus()
	cfg.Obs.Subscribe(func(obs.Event) { tick() })
	_, err := Run(cfg, func(r *Rank) {
		c := r.World()
		me := r.Rank()
		defer func() { running-- }()
		fail := func(format string, args ...any) { r.Abort(1, fmt.Sprintf(format, args...)) }
		in := make([]byte, big)
		send := func(dst, tag, i int) {
			out := poolMsg(me, dst, tag, i, size)
			if err := c.Send(dst, tag, out); err != nil {
				fail("%v", err)
			}
		}
		recv := func(src, tag, i, size int) {
			st, err := c.Recv(in, src, tag)
			if err != nil {
				fail("%v", err)
			}
			if st.Count != size || !bytes.Equal(in[:size], poolMsg(src, me, tag, i, size)) {
				fail("rank %d: message %d of tag %d from %d damaged or out of order", me, i, tag, src)
			}
		}
		if cfg.Policy != "ondemand" {
			// Fill every pool: all the credits but the reserved one, each
			// message reaching the last byte of its buffer, none read before
			// the receiver is out of MPI_Init and has sent its own.
			const tag, full = 20, 256
			var reqs []Request
			for dst := 0; dst < np; dst++ {
				for i := 0; dst != me && i < cfg.CreditCount-1; i++ {
					q, err := c.Isend(dst, tag, poolMsg(me, dst, tag, i, full))
					if err != nil {
						fail("%v", err)
					}
					reqs = append(reqs, q)
				}
			}
			if err := r.Waitall(reqs...); err != nil {
				fail("%v", err)
			}
			for src := 0; src < np; src++ {
				for i := 0; src != me && i < cfg.CreditCount-1; i++ {
					recv(src, tag, i, full)
				}
			}
			return
		}
		// settle lets the NIC accept the last sends and reaps them, so that
		// the channel to peer is quiescent (evictable).
		settle := func(peer int) {
			r.Compute(10e-6)
			c.Iprobe(peer, 99)
		}
		// Ranks 0 and 1 drive; 2 and 3 follow, and stay passive where it
		// matters (Probe does not connect, a specific-source Recv would).
		mate, cross := me^1, (me+2)%np

		// 1. Crossing BYEs: the pairs 0-1 and 2-3 connect, then 0 and 1 turn
		// to 2 and 3 at the same instant and evict each other, as do 2 and 3
		// when the requests reach them.
		out := poolMsg(me, mate, 1, 0, size)
		if _, err := c.Sendrecv(mate, 1, out, mate, 1, in); err != nil {
			fail("%v", err)
		}
		if !bytes.Equal(in[:size], poolMsg(mate, me, 1, 0, size)) {
			fail("rank %d: first exchange damaged", me)
		}
		settle(mate)
		if me < 2 {
			send(cross, 2, 0)
			recv(cross, 3, 0, size)
		} else {
			c.Probe(cross, 2)
			recv(cross, 2, 0, size)
			send(cross, 3, 0)
		}

		// 2. Parked across a teardown: three eager messages wait in the
		// follower's unexpected queue while the driver evicts the channel
		// (the follower accepts), talks to its mate, and reconnects.
		if me < 2 {
			for i := 0; i < 3; i++ {
				send(cross, 4, i)
			}
			send(cross, 5, 0)
			settle(cross)
			out := poolMsg(me, mate, 6, 0, size)
			if _, err := c.Sendrecv(mate, 6, out, mate, 6, in); err != nil {
				fail("%v", err)
			}
			if !bytes.Equal(in[:size], poolMsg(mate, me, 6, 0, size)) {
				fail("rank %d: exchange with mate damaged", me)
			}
			settle(mate)
			send(cross, 7, 0)
		} else {
			recv(cross, 5, 0, size)
			c.Probe(cross, 7)
			for i := 0; i < 3; i++ {
				recv(cross, 4, i, size)
			}
			recv(cross, 7, 0, size)
		}

		// 3. A refused eviction: the follower starts a rendezvous toward the
		// driver, which — computing, so not polling — then turns to its mate
		// and sends BYE on a channel that looks idle from its side.
		if me < 2 {
			send(cross, 8, 0)
			settle(cross)
			r.Compute(100e-6)
			q, err := c.Isend(mate, 9, poolMsg(me, mate, 9, 0, size))
			if err != nil {
				fail("%v", err)
			}
			recv(cross, 10, 0, big)
			recv(mate, 9, 0, size)
			if _, err := r.Wait(q); err != nil {
				fail("%v", err)
			}
		} else {
			recv(cross, 8, 0, size)
			if err := c.Ssend(cross, 10, poolMsg(me, cross, 10, 0, big)); err != nil {
				fail("%v", err)
			}
		}

		// 4. A burst over the credits: flow control, and pool growth.
		if me < 2 {
			reqs := make([]Request, burst)
			for i := range reqs {
				var err error
				if reqs[i], err = c.Isend(cross, 11, poolMsg(me, cross, 11, i, size)); err != nil {
					fail("%v", err)
				}
			}
			if err := r.Waitall(reqs...); err != nil {
				fail("%v", err)
			}
		} else {
			for i := 0; i < burst; i++ {
				recv(cross, 11, i, size)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !beside {
		t.Errorf("%d buffers scribbled, none while its port had another out holding a message: the test must overwrite free buffers beside busy ones", scribble)
	}
	if cfg.Policy == "ondemand" && (!crossing || !nacked || !parked || grew != cfg.DynamicCredits) {
		t.Errorf("crossing BYEs %v, refused eviction %v, message parked across a teardown %v, pool growth %v (dynamic credits %v): the test must pass through all of them",
			crossing, nacked, parked, grew, cfg.DynamicCredits)
	}
	// The network made a descriptor only when every one it had was out.
	net := ranks[0].port.Network()
	if free, made, out := landingStock(net); len(free)+out != made || made != net.LandingPeak {
		t.Errorf("%d landing descriptors free and %d out of %d made, with at most %d messages unread at once over the network",
			len(free), out, made, net.LandingPeak)
	}
}
