package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"viampi/internal/simnet"
	"viampi/internal/via"
)

// Packets, send descriptors (with their wire buffers), RDMA writes'
// descriptors, requests and unexpected-queue entries are recycled; these
// tests hold what recycling can break: a steady-state allocation creeping
// back, bytes or order lost on the way through the queues that may hold a
// packet or a message across events, a handle that outlives its request, and
// user memory held by what sits on a free list.

// The loop bodies of the allocation rail below; each runs iters iterations.

// pingpong: 8-byte blocking round trips between two ranks.
func pingpong(r *Rank, iters int) {
	c := r.World()
	buf := make([]byte, 8)
	peer := 1 - r.Rank()
	for i := 0; i < iters; i++ {
		if r.Rank() == 0 {
			if err := c.Send(peer, 0, buf); err != nil {
				r.Abort(1, err.Error())
			}
		}
		if _, err := c.Recv(buf, peer, 0); err != nil {
			r.Abort(1, err.Error())
		}
		if r.Rank() == 1 {
			if err := c.Send(peer, 0, buf); err != nil {
				r.Abort(1, err.Error())
			}
		}
	}
}

// persistentRing: every rank exchanges size bytes with both ring neighbours
// through four persistent templates, Startall then WaitallPersistent (NPB SP's
// face exchange).
func persistentRing(size int) func(r *Rank, iters int) {
	return func(r *Rank, iters int) {
		c := r.World()
		n, me := c.Size(), c.Rank()
		left, right := (me+n-1)%n, (me+1)%n
		out, inL, inR := make([]byte, size), make([]byte, size), make([]byte, size)
		rl, err1 := c.RecvInit(inL, left, 2)
		rr, err2 := c.RecvInit(inR, right, 1)
		sl, err3 := c.SendInit(left, 1, out)
		sr, err4 := c.SendInit(right, 2, out)
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			r.Abort(1, err.Error())
		}
		for i := 0; i < iters; i++ {
			if err := Startall(rl, rr, sl, sr); err != nil {
				r.Abort(1, err.Error())
			}
			if err := r.WaitallPersistent(rl, rr, sl, sr); err != nil {
				r.Abort(1, err.Error())
			}
		}
	}
}

// nonblockingHalo: every rank posts two Irecv and two Isend of 64 bytes to its
// ring neighbours, then Waitall (NPB MG's face exchange).
func nonblockingHalo(r *Rank, iters int) {
	c := r.World()
	n, me := c.Size(), c.Rank()
	left, right := (me+n-1)%n, (me+1)%n
	out, inL, inR := make([]byte, 64), make([]byte, 64), make([]byte, 64)
	for i := 0; i < iters; i++ {
		rl, err1 := c.Irecv(inL, left, 2)
		rr, err2 := c.Irecv(inR, right, 1)
		sl, err3 := c.Isend(left, 1, out)
		sr, err4 := c.Isend(right, 2, out)
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			r.Abort(1, err.Error())
		}
		if err := r.Waitall(rl, rr, sl, sr); err != nil {
			r.Abort(1, err.Error())
		}
	}
}

// alltoallv: an all-to-all of block bytes to every rank.
func alltoallv(block int) func(r *Rank, iters int) {
	return func(r *Rank, iters int) {
		c := r.World()
		n := c.Size()
		send, recv := make([]byte, n*block), make([]byte, n*block)
		counts, displs := make([]int, n), make([]int, n)
		for i := range counts {
			counts[i], displs[i] = block, i*block
		}
		for i := 0; i < iters; i++ {
			if err := c.Alltoallv(send, counts, displs, recv, counts, displs); err != nil {
				r.Abort(1, err.Error())
			}
		}
	}
}

// allUnexpected: rank 0 sends three eager messages; rank 1 receives them only
// once the last has arrived, so all three wait in the unexpected queue, takes
// them in reverse order and acknowledges.
func allUnexpected(r *Rank, iters int) {
	c := r.World()
	buf := make([]byte, 64)
	peer := 1 - r.Rank()
	for i := 0; i < iters; i++ {
		if r.Rank() == 0 {
			for tag := 0; tag < 3; tag++ {
				if err := c.Send(peer, tag, buf); err != nil {
					r.Abort(1, err.Error())
				}
			}
			if _, err := c.Recv(buf, peer, 9); err != nil {
				r.Abort(1, err.Error())
			}
			continue
		}
		c.Probe(peer, 2) // per-pair FIFO: the other two are queued already
		for tag := 2; tag >= 0; tag-- {
			if _, err := c.Recv(buf, peer, tag); err != nil {
				r.Abort(1, err.Error())
			}
		}
		if err := c.Send(peer, 9, buf[:1]); err != nil {
			r.Abort(1, err.Error())
		}
	}
}

// allreduceI64: an in-place AllreduceI64 of n values; at 1,024 (NPB IS's
// histogram, 8 KB) every exchange goes by rendezvous.
func allreduceI64(n int) func(r *Rank, iters int) {
	return func(r *Rank, iters int) {
		c := r.World()
		v := make([]int64, n)
		for i := 0; i < iters; i++ {
			for k := range v {
				v[k] = int64(r.Rank() + i + k)
			}
			if err := c.AllreduceI64(v, SumI64); err != nil {
				r.Abort(1, err.Error())
			}
		}
	}
}

// barrier: back-to-back barriers.
func barrier(r *Rank, iters int) {
	for i := 0; i < iters; i++ {
		if err := r.World().Barrier(); err != nil {
			r.Abort(1, err.Error())
		}
	}
}

// allreduceF64: an in-place AllreduceF64 of two values, a residual and a norm.
func allreduceF64(r *Rank, iters int) {
	c := r.World()
	v := make([]float64, 2)
	for i := 0; i < iters; i++ {
		v[0], v[1] = float64(r.Rank()), float64(i)
		if err := c.AllreduceF64(v, SumF64); err != nil {
			r.Abort(1, err.Error())
		}
	}
}

// reduceBcast: a Reduce to rank 0, then the Bcast of its result. A bare
// Reduce loop would let the other ranks run ahead of the root, whose
// unexpected queue would grow with them: MPI buffering, not the collective.
func reduceBcast(r *Rank, iters int) {
	c := r.World()
	send, recv := make([]byte, 16), make([]byte, 16)
	for i := 0; i < iters; i++ {
		if err := c.Reduce(send, recv, SumF64, 0); err != nil {
			r.Abort(1, err.Error())
		}
		if err := c.Bcast(recv, 0); err != nil {
			r.Abort(1, err.Error())
		}
	}
}

// alltoallUniform: an Alltoall of 64-byte blocks.
func alltoallUniform(r *Rank, iters int) {
	c := r.World()
	const block = 64
	send, recv := make([]byte, block*c.Size()), make([]byte, block*c.Size())
	for i := 0; i < iters; i++ {
		if err := c.Alltoall(send, recv, block); err != nil {
			r.Abort(1, err.Error())
		}
	}
}

// The allocation rail at the mpi boundary: a steady-state iteration of each
// loop body allocates nothing. Frames, descriptors (wire and RDMA), packets,
// requests — a blocking call's, a collective's, an Isend's or Irecv's, a
// persistent activation's — and the list the library waits on its own in, and
// unexpected-queue entries all come off free lists; a collective's
// temporaries live in the rank's scratch. Measured by difference between two run lengths of one
// simulation, so boot and the free lists' growth to their peak cancel.
func TestRoundTripAllocs(t *testing.T) {
	cases := []struct {
		name    string
		procs   int
		iters   int             // the short run; the long one is ten times as many
		perIter simnet.Duration // virtual time an iteration takes, boot included
		body    func(r *Rank, iters int)
	}{
		{"eager-round-trip", 2, 200, 16 * simnet.Microsecond, pingpong},
		{"persistent-ring-eager", 4, 50, 23 * simnet.Microsecond, persistentRing(64)},
		{"persistent-ring-rendezvous", 4, 50, 1300 * simnet.Microsecond, persistentRing(16 << 10)},
		{"nonblocking-halo", 4, 50, 23 * simnet.Microsecond, nonblockingHalo},
		{"alltoallv-2-fragments", 4, 10, 7500 * simnet.Microsecond, alltoallv(64<<10 + 4<<10)},
		{"all-unexpected", 2, 100, 22 * simnet.Microsecond, allUnexpected},
		{"allreduce-i64-8k", 4, 20, 660 * simnet.Microsecond, allreduceI64(1024)},
		{"barrier-5", 5, 50, 50 * simnet.Microsecond, barrier},
		{"allreduce-f64-5", 5, 50, 50 * simnet.Microsecond, allreduceF64},
		{"reduce-bcast-5", 5, 50, 55 * simnet.Microsecond, reduceBcast},
		{"alltoall-uniform", 4, 50, 50 * simnet.Microsecond, alltoallUniform},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(iters int) func() {
				return func() {
					cfg := Config{Procs: tc.procs, Deadline: within(simnet.Duration(iters) * tc.perIter)}
					if _, err := Run(cfg, func(r *Rank) { tc.body(r, iters) }); err != nil {
						t.Fatal(err)
					}
				}
			}
			short := testing.AllocsPerRun(5, run(tc.iters))
			long := testing.AllocsPerRun(5, run(10*tc.iters))
			if per := (long - short) / float64(9*tc.iters); per > 0.01 {
				t.Errorf("%.3f allocations per iteration (%v for %d, %v for %d), want 0",
					per, short, tc.iters, long, 10*tc.iters)
			}
		})
	}
}

// streamMsg is message seq of the stream rank 0 sends to dst.
func streamMsg(dst, seq, size int) []byte {
	b := make([]byte, size)
	for k := range b {
		b[k] = byte(dst*53 + seq*31 + k*7)
	}
	return b
}

// A sender that overwrites every buffer as soon as MPI hands it back — while
// the packets that carried them went through the park FIFO (on-demand
// connect), the flow queue (4 credits, more sends than that in a burst) and
// pendingClose (a one-VI cap: the first send of a round connects a new peer,
// which evicts the previous one, which the next send then addresses) — must
// still deliver every stream intact and in order.
func TestPacketRecyclingKeepsPayloads(t *testing.T) {
	const (
		peers  = 3
		rounds = 12
		burst  = 6 // nonblocking sends to each of a round's two peers
		size   = 200
	)
	// Round i addresses old (connected since the round before) and fresh.
	pair := func(round int) (old, fresh int) { return 1 + round%peers, 1 + (round+1)%peers }
	var parked, flowed, held int // most packets seen waiting in each queue
	cfg := Config{Procs: 1 + peers, Policy: "ondemand", MaxVIs: 1, CreditCount: 4,
		Deadline: within(11 * simnet.Millisecond)}
	_, err := Run(cfg, func(r *Rank) {
		c := r.World()
		ack := make([]byte, 1)
		if me := r.Rank(); me != 0 {
			buf := make([]byte, size)
			seq := 0
			for round := 0; round < rounds; round++ {
				if old, fresh := pair(round); me != old && me != fresh {
					continue
				}
				// Probe does not connect (a specific-source Recv would): the
				// sender alone decides when this channel exists.
				c.Probe(0, 0)
				for i := 0; i <= burst; i++ {
					if _, err := c.Recv(buf, 0, 0); err != nil {
						r.Abort(1, err.Error())
					}
					if !bytes.Equal(buf, streamMsg(me, seq, size)) {
						r.Abort(1, fmt.Sprintf("rank %d: message %d damaged or out of order", me, seq))
					}
					seq++
				}
				if err := c.Send(0, 1, ack); err != nil {
					r.Abort(1, err.Error())
				}
			}
			return
		}
		sample := func() {
			for _, cs := range liveChans(r) {
				if cs.ch.Up {
					flowed = max(flowed, cs.flowQ.len())
				} else {
					parked = max(parked, cs.flowQ.len())
				}
				held = max(held, cs.pendingClose.len())
			}
		}
		next := make([]int, 1+peers) // per-destination sequence
		load := func(buf []byte, dst int) {
			copy(buf, streamMsg(dst, next[dst], size))
			next[dst]++
		}
		bufs := make([][]byte, 2*burst)
		for k := range bufs {
			bufs[k] = make([]byte, size)
		}
		reqs := make([]Request, 0, len(bufs))
		for round := 0; round < rounds; round++ {
			old, fresh := pair(round)
			reqs = reqs[:0]
			// Let the NIC accept the last credit return and reap it, so that
			// old is quiescent (evictable) when fresh asks for its VI.
			r.Compute(10e-6)
			c.Iprobe(old, 0)
			for k, buf := range bufs {
				dst := []int{fresh, old}[k%2]
				load(buf, dst)
				q, err := c.Isend(dst, 0, buf)
				if err != nil {
					r.Abort(1, err.Error())
				}
				reqs = append(reqs, q)
				sample()
			}
			for _, q := range reqs {
				for done := false; !done; sample() {
					var err error
					if done, _, err = r.Test(q); err != nil {
						r.Abort(1, err.Error())
					}
					r.Compute(1e-6)
				}
			}
			for _, buf := range bufs {
				for k := range buf {
					buf[k] = 0xFF
				}
			}
			// A blocking send to each, its buffer gone the moment it returns,
			// then both acknowledge: their channels are quiescent again.
			for _, dst := range []int{old, fresh} {
				load(bufs[0], dst)
				if err := c.Send(dst, 0, bufs[0]); err != nil {
					r.Abort(1, err.Error())
				}
				for k := range bufs[0] {
					bufs[0][k] = 0xFF
				}
			}
			for _, src := range []int{old, fresh} {
				if _, err := c.Recv(ack, src, 1); err != nil {
					r.Abort(1, err.Error())
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if parked == 0 || flowed == 0 || held == 0 {
		t.Errorf("most packets seen waiting: park FIFO %d, flowQ %d, pendingClose %d; the test must pass through all three",
			parked, flowed, held)
	}
}

// rdmaPattern is byte k of what src sends dst.
func rdmaPattern(src, dst, k int) byte { return byte(src*31 + dst*7 + k*13) }

// stockRdma replaces the rank's RDMA free list with n fresh descriptors and
// returns them, so that a test can see what became of the writes it makes.
func stockRdma(r *Rank, n int) []*via.Descriptor {
	stock := make([]*via.Descriptor, n)
	for i := range stock {
		stock[i] = r.growRdma()
	}
	r.freeRdma = nil
	for _, d := range stock {
		r.recycleSend(d)
	}
	return stock
}

// writing counts the descriptors of stock that are posted and not complete:
// RDMA writes whose fragments the NIC has not finished taking.
func writing(stock []*via.Descriptor) int {
	n := 0
	for _, d := range stock {
		if d.VI() != nil && !d.Done() {
			n++
		}
	}
	return n
}

// A rendezvous send completes when its FIN is posted, which is before the NIC
// has taken the RDMA write's fragments: what arrives is right only because
// the write's bytes are placed in the receiver's target at the post
// (via.VI.PostRdmaWrite), and its frames carry headers only. A sender
// that overwrites a three-fragment buffer the moment Wait, or Alltoallv,
// returns — with the write still in progress, which the test checks — must
// not change a byte of what the receivers get. In the Alltoallv a rank sends
// three fragments to each higher rank and an eager block to each lower one,
// so rank 0's receives are done long before its writes are.
func TestRendezvousSendBufferReuse(t *testing.T) {
	const (
		size  = 3*64<<10 - 100 // three fragments at the default MTU
		small = 100
	)
	var waitWriting, alltoallWriting int
	runWorld(t, Config{Procs: 4, Deadline: within(14 * simnet.Millisecond)}, func(r *Rank) {
		c := r.World()
		n, me := c.Size(), c.Rank()
		fail := func(format string, args ...any) { r.Abort(1, fmt.Sprintf(format, args...)) }
		buf := make([]byte, size)

		// Wait: rank 0 to rank 1.
		switch me {
		case 0:
			stock := stockRdma(r, 1)
			for k := range buf {
				buf[k] = rdmaPattern(0, 1, k)
			}
			q, err := c.Isend(1, 0, buf)
			if err != nil {
				fail("%v", err)
			}
			if _, err := r.Wait(q); err != nil {
				fail("%v", err)
			}
			waitWriting = writing(stock)
			for k := range buf {
				buf[k] = 0xFF
			}
		case 1:
			if _, err := c.Recv(buf, 0, 0); err != nil {
				fail("%v", err)
			}
			for k := range buf {
				if buf[k] != rdmaPattern(0, 1, k) {
					fail("Wait: byte %d of %d arrived as %#x", k, size, buf[k])
				}
			}
		}

		// Alltoallv: every rank to every other.
		block := func(src, dst int) int {
			if src < dst {
				return size
			}
			return small
		}
		send, recv := make([]byte, n*size), make([]byte, n*size)
		scounts, rcounts, displs := make([]int, n), make([]int, n), make([]int, n)
		for i := range displs {
			scounts[i], rcounts[i], displs[i] = block(me, i), block(i, me), i*size
			for k := 0; k < scounts[i]; k++ {
				send[i*size+k] = rdmaPattern(me, i, k)
			}
		}
		stock := stockRdma(r, n-1)
		if err := c.Alltoallv(send, scounts, displs, recv, rcounts, displs); err != nil {
			fail("%v", err)
		}
		alltoallWriting += writing(stock)
		for k := range send {
			send[k] = 0xFF
		}
		if err := c.Barrier(); err != nil { // every rank has overwritten its send buffer
			fail("%v", err)
		}
		for src := 0; src < n; src++ {
			for k := 0; k < rcounts[src]; k++ {
				if got := recv[src*size+k]; got != rdmaPattern(src, me, k) {
					fail("Alltoallv: rank %d byte %d from %d arrived as %#x", me, k, src, got)
				}
			}
		}
	})
	if waitWriting != 1 || alltoallWriting == 0 {
		t.Errorf("RDMA writes in progress when the buffer was overwritten: %d after Wait (want 1), %d after Alltoallv (want some)",
			waitWriting, alltoallWriting)
	}
}

// A persistent template's handle follows the handle rule: each Start gives a
// new one, the wait that completes the activation returns its Status, and the
// previous activation's handle, kept, is refused. Starting the template while
// active is refused and leaves the activation alone; a Start that fails leaves
// the template inactive — a null handle, nothing for Wait or
// WaitallPersistent to hang on. The failures come from a one-VI port
// (MaxVIsPerPort) under a one-VI cap: the cap evicts the live channel, the
// port cannot open a second VI until that eviction completes, and a channel
// whose send the NIC still holds cannot be evicted at all.
func TestPersistentHandleIdentity(t *testing.T) {
	sizes := []int{8, 300, 40, 1}
	cfg := Config{Procs: 3, MaxVIs: 1, TuneCost: func(c *via.CostModel) { c.MaxVIsPerPort = 1 },
		Deadline: within(4 * simnet.Millisecond)}
	runWorld(t, cfg, func(r *Rank) {
		c := r.World()
		fail := func(format string, args ...any) { r.Abort(1, fmt.Sprintf(format, args...)) }
		// settle lets the NIC take the last send and reaps it, so that the
		// live channel is quiescent and the cap can evict it.
		settle := func() {
			r.Compute(10e-6)
			c.Iprobe(AnySource, 99)
		}
		// closeAll polls until every channel's eviction has completed.
		closeAll := func() {
			for len(liveChans(r)) > 0 {
				r.Compute(1e-6)
				c.Iprobe(AnySource, 99)
			}
		}
		switch r.Rank() {
		case 1:
			for tag, size := range sizes {
				if tag == len(sizes)-1 {
					r.Proc().Sleep(simnet.Millisecond) // rank 0 starts this one first
				}
				if err := c.Send(0, tag, bytes.Repeat([]byte{byte(tag + 1)}, size)); err != nil {
					fail("%v", err)
				}
			}
			c.Probe(0, 7) // passive: rank 0 reconnects
			if _, err := c.Recv(make([]byte, 8), 0, 7); err != nil {
				fail("%v", err)
			}
			return
		case 2:
			c.Probe(0, 5)
			if _, err := c.Recv(make([]byte, 8), 0, 5); err != nil {
				fail("%v", err)
			}
			return
		}

		in := make([]byte, 512)
		pr, err := c.RecvInit(in, 1, AnyTag)
		if err != nil {
			fail("%v", err)
		}
		var prev Request
		for tag, size := range sizes {
			if err := pr.Start(); err != nil {
				fail("Start %d: %v", tag, err)
			}
			h := pr.Request()
			if h == prev || h == (Request{}) {
				fail("Start %d: Request is not a new handle", tag)
			}
			if _, err := r.Wait(prev); tag > 0 && err == nil {
				fail("Start %d: the previous activation's handle was accepted", tag)
			}
			if tag == len(sizes)-1 {
				if done, _, _ := r.Test(h); done {
					fail("the last message arrived before its Start")
				}
				if err := pr.Start(); err == nil {
					fail("Start on an active template accepted")
				}
				if pr.Request() != h || !h.live() {
					fail("a refused Start disturbed the activation")
				}
			}
			st, err := r.Wait(h)
			if err != nil {
				fail("%v", err)
			}
			want := Status{Source: 1, Tag: tag, Count: size}
			if st != want || !bytes.Equal(in[:size], bytes.Repeat([]byte{byte(tag + 1)}, size)) {
				fail("activation %d: status %+v, want %+v", tag, st, want)
			}
			prev = h
		}

		// A failed first Start: the cap starts evicting the channel to rank
		// 1, and the port has no room for a second VI meanwhile.
		ps, err := c.SendInit(2, 5, []byte("five"))
		if err != nil {
			fail("%v", err)
		}
		settle()
		if err := ps.Start(); err == nil {
			fail("Start found a VI the port cannot have")
		}
		if ps.Request() != (Request{}) {
			fail("a failed first Start left an activation")
		}
		if err := r.WaitallPersistent(ps, pr); err != nil {
			fail("WaitallPersistent over an inactive template: %v", err)
		}

		// It starts once the eviction is through, and completes.
		closeAll()
		if err := ps.Start(); err != nil {
			fail("Start with room: %v", err)
		}
		kept := ps.Request()
		if err := r.WaitallPersistent(ps); err != nil || !kept.stale() {
			fail("WaitallPersistent: %v, stale %v", err, kept.stale())
		}

		// Then fails: rank 1's channel holds the port, with a send at the NIC.
		settle()
		if err := c.Send(1, 7, []byte("seven")); err == nil {
			fail("Send found a VI the port cannot have")
		}
		closeAll()
		if err := c.Send(1, 7, []byte("seven")); err != nil {
			fail("Send with room: %v", err)
		}
		if err := ps.Start(); err == nil {
			fail("Start found a VI the port cannot have")
		}
		if ps.Request() != (Request{}) {
			fail("a failed Start left an activation")
		}
		if st, err := r.Wait(kept); err == nil || st != (Status{}) {
			fail("a kept handle waits to %+v, %v after a failed Start; want it refused", st, err)
		}
		if err := r.WaitallPersistent(ps); err != nil {
			fail("WaitallPersistent over an inactive template: %v", err)
		}
	})
}

// A handle outlives its request's wait only as a stale copy: passed to Wait,
// Test or Waitall after the wait that completed it, it is refused with an
// error before any progress pass, and the request — which the free list has
// lent to the next receive by then — is left exactly as that receive has it.
// The null handle is complete at once: Wait and Test make no pass, and a
// Waitall over nothing else makes its one.
func TestStaleHandleRefused(t *testing.T) {
	polls := 0
	var me *Rank
	pollAudit = func(r *Rank, scan pollScan, _ bool) {
		if r == me && scan == scanHandshake {
			polls++
		}
	}
	defer func() { pollAudit = nil }()
	runWorld(t, testCfg(2), func(r *Rank) {
		c := r.World()
		fail := func(format string, args ...any) { r.Abort(1, fmt.Sprintf(format, args...)) }
		ack := make([]byte, 1)
		if r.Rank() == 1 {
			if err := c.Send(0, 0, []byte("one")); err != nil {
				fail("%v", err)
			}
			if _, err := c.Recv(ack, 0, 9); err != nil {
				fail("%v", err)
			}
			if err := c.Send(0, 1, []byte("two")); err != nil {
				fail("%v", err)
			}
			return
		}
		me = r
		in, next := make([]byte, 8), make([]byte, 8)
		h, err := c.Irecv(in, 1, 0)
		if err != nil {
			fail("%v", err)
		}
		kept := h
		if st, err := r.Wait(h); err != nil || st.Count != 3 {
			fail("Wait: %+v, %v", st, err)
		}
		// Rank 1 sends tag 1 only after the ack: this receive stays pending.
		h2, err := c.Irecv(next, 1, 1)
		if err != nil {
			fail("%v", err)
		}
		if h2.q != kept.q {
			fail("the free list lent a different request; the test needs the kept one's")
		}
		for _, use := range []struct {
			name string
			call func() error
		}{
			{"Wait", func() error { _, err := r.Wait(kept); return err }},
			{"Test", func() error { _, _, err := r.Test(kept); return err }},
			{"Waitall", func() error { return r.Waitall(h2, kept) }},
		} {
			before := polls
			if err := use.call(); !errors.Is(err, errStale) {
				fail("%s on a kept handle: %v, want %v", use.name, err, errStale)
			}
			if polls != before {
				fail("%s on a kept handle made %d progress passes", use.name, polls-before)
			}
			if q := h2.q; !h2.live() || q.done || q.err != nil || q.tag != 1 || &q.buf[0] != &next[0] {
				fail("%s on a kept handle disturbed the request lent since: %+v", use.name, *q)
			}
		}

		before := polls
		if st, err := r.Wait(Request{}); st != (Status{}) || err != nil {
			fail("Wait(null) = %+v, %v", st, err)
		}
		if done, st, err := r.Test(Request{}); !done || st != (Status{}) || err != nil {
			fail("Test(null) = %v, %+v, %v", done, st, err)
		}
		if polls != before {
			fail("a null handle made %d progress passes", polls-before)
		}
		if err := r.Waitall(Request{}); err != nil || polls != before+1 {
			fail("Waitall(null): %v after %d progress passes, want 1", err, polls-before)
		}

		if err := c.Send(1, 9, ack); err != nil {
			fail("%v", err)
		}
		if st, err := r.Wait(h2); err != nil || string(next[:st.Count]) != "two" {
			fail("the lent request: %+v, %v, %q", st, err, next)
		}
	})
}

// Unexpected-queue entries keep their payload buffers from message to
// message: messages that grow and then shrink, from a peer and from the rank
// itself (a send to self overwritten the moment Isend returns), all waiting
// in the queue and matched out of arrival order by tag, must each arrive with
// exactly their own bytes and count.
func TestUnexpectedEntriesKeepPayloads(t *testing.T) {
	sizes := []int{8, 300, 4000, 1200, 40, 0, 2}
	const rounds = 4
	msg := func(round, src, tag, size int) []byte {
		b := make([]byte, size)
		for k := range b {
			b[k] = byte(round*97 + src*53 + tag*31 + k*7)
		}
		return b
	}
	runWorld(t, testCfg(2), func(r *Rank) {
		c := r.World()
		me := r.Rank()
		fail := func(format string, args ...any) { r.Abort(1, fmt.Sprintf(format, args...)) }
		ack := make([]byte, 1)
		for round := 0; round < rounds; round++ {
			if me == 0 {
				for tag, size := range sizes {
					if err := c.Send(1, tag, msg(round, 0, tag, size)); err != nil {
						fail("%v", err)
					}
				}
				if _, err := c.Recv(ack, 1, 99); err != nil {
					fail("%v", err)
				}
				continue
			}
			self := make([]byte, 4000)
			for tag, size := range sizes {
				// Sizes in reverse order, so neighbours in the queue differ.
				size = sizes[len(sizes)-1-tag]
				copy(self, msg(round, 1, tag, size))
				if _, err := c.Isend(1, 100+tag, self[:size]); err != nil {
					fail("%v", err)
				}
				for k := range self {
					self[k] = 0xFF
				}
			}
			c.Probe(0, len(sizes)-1) // per-pair FIFO: all of rank 0's are queued
			in := make([]byte, 4000)
			// Out of arrival order, each peer message followed by a self one.
			for _, tag := range []int{5, 3, 1, 6, 0, 4, 2} {
				for _, src := range []int{0, 1} {
					want := msg(round, src, tag, sizes[tag])
					if src == 1 {
						want = msg(round, 1, tag, sizes[len(sizes)-1-tag])
					}
					st, err := c.Recv(in, src, tag+100*src)
					if err != nil {
						fail("%v", err)
					}
					if st.Count != len(want) || !bytes.Equal(in[:st.Count], want) {
						fail("round %d: tag %d from %d arrived as %d bytes, not its own %d", round, tag, src, st.Count, len(want))
					}
				}
			}
			if err := c.Send(0, 99, ack); err != nil {
				fail("%v", err)
			}
		}
	})
}

// A descriptor back on the RDMA free list holds none of the memory its last
// write was made from: after rendezvous sends have been reaped, every
// descriptor the writes went out on is on the list, and none has a Buf.
func TestRdmaFreeListHoldsNoBuffers(t *testing.T) {
	const size = 64<<10 + 100
	runWorld(t, testCfg(2), func(r *Rank) {
		c := r.World()
		me := r.Rank()
		fail := func(format string, args ...any) { r.Abort(1, fmt.Sprintf(format, args...)) }
		buf := make([]byte, size)
		for i := 0; i < 3; i++ {
			if me == 0 {
				if err := c.Send(1, i, buf); err != nil {
					fail("%v", err)
				}
			} else if _, err := c.Recv(buf, 0, i); err != nil {
				fail("%v", err)
			}
		}
		if me != 0 {
			return
		}
		for r.port.UnreapedSends() > 0 {
			r.Compute(10e-6)
			c.Iprobe(1, 99)
		}
		if r.freeRdma == nil {
			fail("no RDMA descriptor came back")
		}
		for _, d := range freeDescs(r.freeRdma) {
			if d.Buf != nil {
				fail("an RDMA descriptor on the free list holds %d bytes of a finished write", len(d.Buf))
			}
		}
	})
}
