package mpi

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"viampi/internal/simnet"
	"viampi/internal/via"
)

// The paper's send FIFO is a channel's flow queue while the channel is not
// up, and the send and RDMA descriptor free lists are linked through the
// descriptors' own UserPtr: once the packets and descriptors exist, parking
// sends, draining them at channel-up and reaping descriptors allocate nothing,
// on a channel's first life and a rank's first reap as on any later one.

// mallocs returns the heap allocations the process has made so far. A world
// runs one process at a time, so a window that does not yield counts that
// process alone.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// Rank 0 parks n eager packets on its channel to rank 1 once the VI has
// connected but before the manager has promoted the channel, then polls the
// manager once: the promotion drains them at channel-up. Its credits are held
// at zero for that poll, so the drained packets wait in the flow queue, in
// order, and nothing is sent inside the measured windows; rank 1 then
// receives all n, by tag in park order.
func TestParkAndDrainAllocateNothing(t *testing.T) {
	const n = 32
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var parkAllocs, drainAllocs uint64
	runWorld(t, Config{Procs: 3, Deadline: 100 * simnet.Millisecond}, func(r *Rank) {
		c := r.World()
		fail := func(format string, args ...any) { r.Abort(1, fmt.Sprintf(format, args...)) }
		msg := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 8) }
		buf := make([]byte, 8)
		switch r.Rank() {
		case 2:
			if _, err := c.Recv(buf, 0, 99); err != nil {
				fail("%v", err)
			}
			return
		case 1:
			r.Compute(1e-3) // rank 0 asks for the channel first
			for i := range n {
				if _, err := c.Recv(buf, 0, i); err != nil || !bytes.Equal(buf, msg(i)) {
					fail("message %d: %v, %v", i, err, buf)
				}
			}
			return
		}
		// A channel has come up before, so the manager's table of peers ever
		// up exists; the packets exist too.
		if err := c.Send(2, 99, buf); err != nil {
			fail("%v", err)
		}
		msgs := make([][]byte, n)
		for i := range msgs {
			msgs[i] = msg(i)
			p := growPkts()
			p.next, r.freePkts = r.freePkts, p
		}
		cs, err := r.channel(1)
		if err != nil {
			fail("%v", err)
		}
		for cs.ch.Vi.State() != via.ViConnected {
			r.Compute(10e-6)
		}
		if cs.ch.Up {
			fail("the channel was promoted before anything parked")
		}

		before := mallocs()
		for i := range n {
			r.post(cs, r.newPkt(hdr{kind: pktEager, srcRank: 0, tag: int32(i), size: 8}, msgs[i], nil))
		}
		parkAllocs = mallocs() - before
		if got := parkedOn(cs); got != n {
			fail("%d packets parked, want %d", got, n)
		}

		credits := cs.credits
		cs.credits = 0
		before = mallocs()
		r.mgr.Poll()
		drainAllocs = mallocs() - before
		if !cs.ch.Up {
			fail("the manager's poll did not promote the connected channel")
		}
		i := 0
		for p := cs.flowQ.head; p != nil; p = p.next {
			if p.hdr.tag != int32(i) {
				fail("drained packet %d carries tag %d", i, p.hdr.tag)
			}
			i++
		}
		if i != n {
			fail("%d packets drained, want %d", i, n)
		}
		cs.credits = credits
		r.waitProgress(func() bool { return cs.flowQ.head == nil })
	})
	if parkAllocs != 0 || drainAllocs != 0 {
		t.Errorf("%d allocations parking %d sends on a channel not up and %d draining them at channel-up, want 0 and 0",
			parkAllocs, n, drainAllocs)
	}
}

// A rank's first reap of k send and k RDMA write descriptors puts each back on
// the list its tag names without allocating, and taking them off again
// restores each tag. The descriptors are posted as sends on a VI that is not
// connected, which completes them at once, discarded: the list a reaped
// descriptor goes back to is its tag's, whatever it carried.
func TestFirstReapAllocatesNothing(t *testing.T) {
	const k = 32
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var reapAllocs uint64
	runWorld(t, Config{Procs: 1, Deadline: 100 * simnet.Millisecond}, func(r *Rank) {
		fail := func(format string, args ...any) { r.Abort(1, fmt.Sprintf(format, args...)) }
		if r.freeSends != nil || r.freeRdma != nil {
			fail("a rank that has sent nothing has free descriptors")
		}
		vi, err := r.port.CreateVi()
		if err != nil {
			fail("%v", err)
		}
		made := make(map[*via.Descriptor]any, 2*k)
		for range k {
			s, w := r.growSends(), r.growRdma()
			made[s], made[w] = r, &r.freeRdma
			for _, d := range []*via.Descriptor{s, w} {
				if err := vi.PostSend(d); err != nil {
					fail("%v", err)
				}
			}
		}

		before := mallocs()
		for d := vi.SendDone(); d != nil; d = vi.SendDone() {
			r.recycleSend(d)
		}
		reapAllocs = mallocs() - before

		for _, l := range []struct {
			list **via.Descriptor
			tag  any
		}{{&r.freeSends, r}, {&r.freeRdma, &r.freeRdma}} {
			for range k {
				d := takeDesc(l.list, l.tag)
				if d == nil || made[d] != l.tag || d.UserPtr != l.tag {
					fail("a descriptor off the free list is not one reaped onto it, or lost its tag")
				}
				delete(made, d)
			}
			if *l.list != nil {
				fail("more descriptors on a free list than were reaped onto it")
			}
		}
		vi.Close()
	})
	if reapAllocs != 0 {
		t.Errorf("%d allocations reaping %d sends and %d RDMA writes, want 0", reapAllocs, k, k)
	}
}
