package via

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"viampi/internal/simnet"
)

// A VI's work queues are linked through their descriptors. These tests hold
// what a link can break that a slice could not: the order and the tail after a
// detach from the middle, a descriptor handed on to another list while Close
// walks this one, a link that outlives its VI's life, a descriptor linked
// twice, and the claim that motivates the links: posting allocates nothing.

// list returns q's descriptors, oldest first. It stops past 1<<16, so a queue
// linked into a cycle reads as too long instead of hanging the test.
func (q *descQueue) list() []*Descriptor {
	var ds []*Descriptor
	for d := q.head; d != nil && len(ds) <= 1<<16; d = d.next {
		ds = append(ds, d)
	}
	return ds
}

// checkQueue fails unless q holds want, in order, with the last of them its
// tail.
func checkQueue(t *testing.T, what string, q *descQueue, want ...*Descriptor) {
	t.Helper()
	var tail *Descriptor
	if len(want) > 0 {
		tail = want[len(want)-1]
	}
	if got := q.list(); !slices.Equal(got, want) || q.tail != tail {
		t.Errorf("%s: %d descriptors queued (the ones wanted, in order: %v; the tail wanted: %v), want %d",
			what, len(got), slices.Equal(got, want), q.tail == tail, len(want))
	}
}

// connectTo connects vi to the VI with discriminator 5 at addr and waits.
func connectTo(t *testing.T, port *Port, vi *VI, addr Addr) {
	t.Helper()
	if err := port.ConnectPeerRequest(vi, addr, 5); err != nil {
		t.Fatal(err)
	}
	if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != nil {
		t.Fatal(err)
	}
}

// The NIC completes a VI's receives in the order they were posted, so CQ.Done
// detaches its queue's head in every run the model makes. The detach searches,
// though, and a completion taken from the middle or the end of the queue must
// leave the rest in order, with the tail where the next post links. The test
// completes two receives by hand, as handleData does, one mid-queue and the
// last, then lands three messages through the NIC.
func TestCQDetachKeepsFIFO(t *testing.T) {
	const size = 16
	e := newEnv(2, 1, ClanCost())
	addrs := make([]Addr, 2)
	e.pair(t,
		func(p *simnet.Proc, port *Port) {
			addrs[0] = port.Addr()
			p.Sleep(10 * simnet.Microsecond)
			vi, err := port.CreateVi()
			if err != nil {
				t.Fatal(err)
			}
			connectTo(t, port, vi, addrs[1])
			sendStream(t, vi, 0, 3, size)
		},
		func(p *simnet.Proc, port *Port) {
			addrs[1] = port.Addr()
			cq := NewCQ(port)
			vi, err := port.CreateViCQ(cq)
			if err != nil {
				t.Fatal(err)
			}
			d := make([]*Descriptor, 5)
			for k := range d {
				d[k] = &Descriptor{Buf: make([]byte, size)}
			}
			for _, k := range []int{0, 1, 2, 3} {
				if err := vi.PostRecv(d[k]); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range []int{1, 3} {
				d[k].Status = StatusSuccess
				cq.push(vi, d[k])
			}
			for _, k := range []int{1, 3} {
				if got, gd := cq.Done(); got != vi || gd != d[k] {
					t.Fatalf("CQ.Done: receive %v of this VI: %v, want receive %d", slices.Index(d, gd), got == vi, k)
				}
			}
			checkQueue(t, "after detaching the second and the last", &vi.recvQ, d[0], d[2])
			if err := vi.PostRecv(d[4]); err != nil {
				t.Fatal(err)
			}
			checkQueue(t, "after one more post", &vi.recvQ, d[0], d[2], d[4])
			p.Sleep(10 * simnet.Microsecond)
			connectTo(t, port, vi, addrs[0])
			for i, k := range []int{0, 2, 4} {
				got, gd, err := cq.Wait(WaitPoll, -1)
				if err != nil || got != vi || gd != d[k] || !bytes.Equal(gd.Buf[:gd.XferLen], pattern(i, size)) {
					t.Fatalf("message %d: landed in receive %d (error %v), want receive %d, intact", i, slices.Index(d, gd), err, k)
				}
			}
			checkQueue(t, "after the three messages", &vi.recvQ)
		})
}

// Close with everything out at once: two pool messages landed and unreaped,
// whose CQ entries keep their descriptors out; a third part-way in, which
// Close hands back to the stock while it walks the receive queue; and two sends
// completed and unreaped. Every landing descriptor comes back exactly once —
// the part-way one at Close, the others as the owner reads their entries — and
// the send queue goes empty.
func TestCloseReturnsEachLandingOnce(t *testing.T) {
	const short, long = 64, 20000
	cost := ClanCost()
	cost.MTU = 1000 // the long message is twenty frames
	e := newEnv(2, 1, cost)
	addrs := make([]Addr, 2)
	e.pair(t,
		func(p *simnet.Proc, port *Port) {
			addrs[0] = port.Addr()
			p.Sleep(10 * simnet.Microsecond)
			vi, err := port.CreateVi()
			if err != nil {
				t.Fatal(err)
			}
			postRecvs(t, vi, 2, 8) // B's sends land here, not in the network's stock
			connectTo(t, port, vi, addrs[1])
			p.Sleep(50 * simnet.Microsecond) // B is connected and its sends are done
			sendStream(t, vi, 0, 2, short)
			sendStream(t, vi, 2, 1, long)
		},
		func(p *simnet.Proc, port *Port) {
			addrs[1] = port.Addr()
			cq := NewCQ(port)
			vi, err := port.CreateViCQ(cq)
			if err != nil {
				t.Fatal(err)
			}
			if err := vi.PostRecvPool(3, long); err != nil {
				t.Fatal(err)
			}
			p.Sleep(10 * simnet.Microsecond)
			connectTo(t, port, vi, addrs[0])
			sends := []*Descriptor{{Buf: make([]byte, 8), Len: 8}, {Buf: make([]byte, 8), Len: 8}}
			for _, d := range sends {
				if err := vi.PostSend(d); err != nil {
					t.Fatal(err)
				}
			}
			for cq.Len() < 2 || vi.rxCur == nil || !sends[0].Done() || !sends[1].Done() {
				p.Sleep(100)
			}
			partial := vi.rxCur
			vi.Close()
			if port.UnreapedSends() != 0 || vi.SendDone() != nil || sends[0].Status != StatusSuccess || sends[1].Status != StatusSuccess {
				t.Errorf("after Close: %d sends counted unreaped, statuses %v and %v; want none, both still successful",
					port.UnreapedSends(), sends[0].Status, sends[1].Status)
			}
			if free, made := e.net.Landing(); made != 3 || !slices.Equal(free, []*Descriptor{partial}) || port.LandingOut() != 2 {
				t.Errorf("after Close: %d landing descriptors free of %d made, %d out; want the part-way one alone free, the two completed out",
					len(free), made, port.LandingOut())
			}
			var landed []*Descriptor
			for i := range 2 {
				got, d := cq.Done()
				if got != vi || d.Status != StatusSuccess || !bytes.Equal(d.Buf[:d.XferLen], pattern(i, short)) {
					t.Fatalf("entry %d: the completion did not survive its VI's Close intact", i)
				}
				landed = append(landed, d)
				port.ReturnLanding(d)
				port.ReturnLanding(d) // a second hand-back finds it no longer lent
			}
			free, made := e.net.Landing()
			for _, d := range append(landed, partial) {
				if !slices.Contains(free, d) {
					t.Error("a landing descriptor did not come back")
				}
			}
			if made != 3 || len(free) != 3 || port.LandingOut() != 0 {
				t.Errorf("at the end: %d landing descriptors free of %d made, %d out; want all three back, each once", len(free), made, port.LandingOut())
			}
		})
}

// A VI closed with descriptors on both queues and reissued from the port's
// free list starts its new life with empty queues: no reap or walk reaches a
// descriptor of the last life, none of those is still linked, and each can be
// posted again.
func TestReissuedVIReachesNoOldDescriptor(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	e.pair(t, func(p *simnet.Proc, port *Port) {
		vi, err := port.CreateVi()
		if err != nil {
			t.Fatal(err)
		}
		recvs := []*Descriptor{{Buf: make([]byte, 8)}, {Buf: make([]byte, 8)}}
		sends := []*Descriptor{{Buf: make([]byte, 8), Len: 8}, {Buf: make([]byte, 8), Len: 8}}
		for i := range recvs {
			if err := vi.PostRecv(recvs[i]); err != nil {
				t.Fatal(err)
			}
			// Unconnected: the send completes discarded, queued until reaped.
			if err := vi.PostSend(sends[i]); err != nil {
				t.Fatal(err)
			}
		}
		old := vi.ID()
		vi.Close()
		again, err := port.CreateVi()
		if err != nil {
			t.Fatal(err)
		}
		if again != vi || again.ID() == old {
			t.Fatal("CreateVi after Close did not reissue the closed VI")
		}
		if again.viQueues != (viQueues{}) || again.SendQueueLen() != 0 || again.SendDone() != nil ||
			again.RecvDone() != nil || len(slices.Collect(again.PostedSends)) != 0 || port.UnreapedSends() != 0 {
			t.Error("the reissued VI reaches a descriptor of its last life")
		}
		for _, d := range append(recvs, sends...) {
			if d.next != nil || d.queued() {
				t.Error("a descriptor of the closed life is still linked")
			}
		}
		if err := again.PostRecv(recvs[1]); err != nil {
			t.Fatal(err)
		}
		if err := again.PostSend(sends[0]); err != nil {
			t.Fatal(err)
		}
		checkQueue(t, "the new life's receives", &again.recvQ, recvs[1])
		checkQueue(t, "the new life's sends", &again.sendQ, sends[0])
	}, func(*simnet.Proc, *Port) {})
}

// A descriptor is on one queue at a time. Posting it again while it is still on
// one — mid-queue, last, or on the other queue or another VI — is refused with
// ErrBadState and changes nothing: a list would be cut where a slice held two
// copies. Once reaped, it posts again.
func TestRepostWhileQueuedRefused(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	e.pair(t, func(p *simnet.Proc, port *Port) {
		vi, err := port.CreateVi()
		if err != nil {
			t.Fatal(err)
		}
		other, err := port.CreateVi()
		if err != nil {
			t.Fatal(err)
		}
		r0, r1 := &Descriptor{Buf: make([]byte, 8)}, &Descriptor{Buf: make([]byte, 8)}
		s := &Descriptor{Buf: make([]byte, 8), Len: 8}
		for _, err := range []error{vi.PostRecv(r0), vi.PostRecv(r1), vi.PostSend(s)} {
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, try := range []struct {
			what string
			post func() error
		}{
			{"a mid-queue receive again", func() error { return vi.PostRecv(r0) }},
			{"the last receive again", func() error { return vi.PostRecv(r1) }},
			{"a queued receive on another VI", func() error { return other.PostRecv(r0) }},
			{"a queued receive as a send", func() error { return vi.PostSend(r1) }},
			{"a queued send again", func() error { return vi.PostSend(s) }},
			{"a queued send as a receive of another VI", func() error { return other.PostRecv(s) }},
		} {
			if err := try.post(); !errors.Is(err, ErrBadState) {
				t.Errorf("posting %s: error %v, want ErrBadState", try.what, err)
			}
		}
		checkQueue(t, "receives", &vi.recvQ, r0, r1)
		checkQueue(t, "sends", &vi.sendQ, s)
		checkQueue(t, "the other VI's receives", &other.recvQ)
		if e.net.DiscardedSends != 1 || port.UnreapedSends() != 1 {
			t.Errorf("%d sends discarded, %d unreaped; want the refused posts to count nowhere", e.net.DiscardedSends, port.UnreapedSends())
		}
		if d := vi.SendDone(); d != s {
			t.Fatal("the discarded send was not reaped")
		}
		if err := vi.PostSend(s); err != nil {
			t.Errorf("posting a reaped send again: %v", err)
		}
		checkQueue(t, "sends after the repost", &vi.sendQ, s)
	}, func(*simnet.Proc, *Port) {})
}

// A fresh VI's first posts allocate nothing: its queues are links in the
// descriptors, not arrays its first posts grow. Each run takes a VI never used
// before from the port's reserved slab, posts 64 receives and 64 sends (a send
// on an unconnected VI completes discarded) and reaps the sends.
func TestFreshVIPostsAllocateNothing(t *testing.T) {
	const posts, runs = 64, 10
	e := newEnv(2, 1, ClanCost())
	// One set per run and one for AllocsPerRun's warm-up: each VI stays live
	// with its receives posted.
	recvs := make([][posts]Descriptor, runs+1)
	sends := make([][posts]Descriptor, runs+1)
	for r := range recvs {
		for i := range posts {
			recvs[r][i].Buf = make([]byte, 8)
			sends[r][i] = Descriptor{Buf: make([]byte, 8), Len: 8}
		}
	}
	e.pair(t, func(p *simnet.Proc, port *Port) {
		port.Reserve(runs + 1)
		run := 0
		allocs := testing.AllocsPerRun(runs, func() {
			vi, err := port.CreateVi()
			if err != nil {
				t.Fatal(err)
			}
			for i := range posts {
				if err := vi.PostRecv(&recvs[run][i]); err != nil {
					t.Fatal(err)
				}
				if err := vi.PostSend(&sends[run][i]); err != nil {
					t.Fatal(err)
				}
			}
			for vi.SendDone() != nil {
			}
			run++
		})
		if allocs != 0 {
			t.Errorf("%v allocations for %d posts of each kind and the sends' reaps on a fresh VI, want 0", allocs, posts)
		}
	}, func(*simnet.Proc, *Port) {})
}
