package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"viampi/internal/simnet"
)

// Packets, send descriptors (with their wire buffers) and the blocking
// calls' requests are recycled; these tests hold what recycling can break: a
// steady-state allocation creeping back, and bytes or order lost on the way
// through the queues that may hold a packet across events.

// pingpong runs n 8-byte blocking round trips between two ranks.
func pingpong(t *testing.T, n int) {
	_, err := Run(Config{Procs: 2, Deadline: 600 * simnet.Second}, func(r *Rank) {
		c := r.World()
		buf := make([]byte, 8)
		peer := 1 - r.Rank()
		for i := 0; i < n; i++ {
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
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The allocation rail at the mpi boundary: a steady-state eager round trip
// through Comm.Send and Comm.Recv allocates nothing (frames, descriptors,
// packets and the blocking calls' requests all come off free lists).
// Measured by difference between two run lengths of one simulation, so boot
// cancels.
func TestRoundTripAllocs(t *testing.T) {
	const n = 200
	short := testing.AllocsPerRun(5, func() { pingpong(t, n) })
	long := testing.AllocsPerRun(5, func() { pingpong(t, 10*n) })
	if perRT := (long - short) / (9 * n); perRT > 0.01 {
		t.Errorf("%.3f allocations per eager round trip (%v for %d, %v for %d), want 0", perRT, short, n, long, 10*n)
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
		Deadline: 600 * simnet.Second}
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
			for _, cs := range r.active {
				parked = max(parked, cs.ch.Parked())
				flowed = max(flowed, len(cs.flowQ))
				held = max(held, len(cs.pendingClose))
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
		reqs := make([]*Request, 0, len(bufs))
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
					if done, err = r.Test(q); err != nil {
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
