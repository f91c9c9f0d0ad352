package via

import (
	"bytes"
	"slices"
	"testing"

	"viampi/internal/simnet"
)

// Frames, descriptors' completion events and queue slots are recycled; these
// tests hold the three things recycling can break: a stale event completing a
// re-posted descriptor, a steady-state allocation creeping back, and a freed
// frame's buffer still being read by someone.

// A descriptor failed by Close while its last fragment is still in NIC
// service, then posted again on a second VI, must not be completed by the
// first post's event: it completes when the NIC has accepted its own last
// fragment, with its own length.
func TestStaleTxCompletionAfterRepost(t *testing.T) {
	cost := ClanCost()
	cost.MTU = 1000
	e := newEnv(2, 1, cost)
	addrs := make([]Addr, 2)
	connect := func(port *Port, me int, disc uint64) *VI {
		vi, err := port.CreateVi()
		if err != nil {
			t.Fatal(err)
		}
		if err := vi.PostRecv(&Descriptor{Buf: make([]byte, 8000)}); err != nil {
			t.Fatal(err)
		}
		if err := port.ConnectPeerRequest(vi, addrs[1-me], disc); err != nil {
			t.Fatal(err)
		}
		if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != nil {
			t.Fatal(err)
		}
		return vi
	}
	e.pair(t,
		func(p *simnet.Proc, port *Port) {
			addrs[0] = port.Addr()
			p.Sleep(10 * simnet.Microsecond)
			v1, v2 := connect(port, 0, 1), connect(port, 0, 2)
			d := &Descriptor{Buf: make([]byte, 8000), Len: 8000}
			if err := v1.PostSend(d); err != nil {
				t.Fatal(err)
			}
			firstDone := e.net.nodes[port.node].txFree // the first post's last fragment
			v1.Close()
			if d.Status != StatusDisconnected {
				t.Fatalf("status after Close = %v, want disconnected", d.Status)
			}
			d.Len = 3000
			if err := v2.PostSend(d); err != nil {
				t.Fatal(err)
			}
			ownDone := e.net.nodes[port.node].txFree
			if ownDone <= firstDone {
				t.Fatalf("re-post's service ends at %v, not after the first post's %v", ownDone, firstDone)
			}
			p.Sleep(firstDone.Sub(p.Now()) + 1)
			if d.Done() {
				t.Errorf("at %v the first post's event completed the re-posted descriptor (status %v, %d bytes); its own last fragment is accepted at %v",
					p.Now(), d.Status, d.XferLen, ownDone)
			}
			if got, err := v2.SendWait(WaitPoll, -1); err != nil || got != d || d.XferLen != 3000 || p.Now() < ownDone {
				t.Errorf("re-post completed with %v (%d bytes) at %v, err %v; want success, 3000 bytes, not before %v",
					d.Status, d.XferLen, p.Now(), err, ownDone)
			}
		},
		func(p *simnet.Proc, port *Port) {
			addrs[1] = port.Addr()
			p.Sleep(10 * simnet.Microsecond)
			connect(port, 1, 1)
			connect(port, 1, 2)
		})
}

// viaRoundTrips runs n 8-byte round trips over one connected VI pair:
// PostSend, a polling RecvWait and a re-post per message on each side.
func viaRoundTrips(t *testing.T, n int) {
	e := newEnv(2, 1, ClanCost())
	addrs := make([]Addr, 2)
	body := func(me int) func(p *simnet.Proc, port *Port) {
		return func(p *simnet.Proc, port *Port) {
			addrs[me] = port.Addr()
			p.Sleep(10 * simnet.Microsecond)
			vi, err := port.CreateVi()
			if err != nil {
				t.Fatal(err)
			}
			sd := &Descriptor{Buf: make([]byte, 8), Len: 8}
			if err := vi.PostRecv(&Descriptor{Buf: make([]byte, 8)}); err != nil {
				t.Fatal(err)
			}
			if err := port.ConnectPeerRequest(vi, addrs[1-me], 1); err != nil {
				t.Fatal(err)
			}
			if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if me == 0 {
					for vi.SendDone() != nil {
					}
					if err := vi.PostSend(sd); err != nil {
						t.Fatal(err)
					}
				}
				d, err := vi.RecvWait(WaitPoll, -1)
				if err != nil {
					t.Fatal(err)
				}
				if err := vi.PostRecv(d); err != nil {
					t.Fatal(err)
				}
				if me == 1 {
					for vi.SendDone() != nil {
					}
					if err := vi.PostSend(sd); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	e.pair(t, body(0), body(1))
}

// The allocation rail at the via boundary: frames come off the Network's
// free list, the send completion is the descriptor itself and the work
// queues are linked through their descriptors, so a round trip allocates
// nothing. Measured by
// difference between two run lengths of one simulation, so boot cancels.
func TestRoundTripAllocs(t *testing.T) {
	const n = 200
	short := testing.AllocsPerRun(5, func() { viaRoundTrips(t, n) })
	long := testing.AllocsPerRun(5, func() { viaRoundTrips(t, 10*n) })
	if perRT := (long - short) / (9 * n); perRT > 0.01 {
		t.Errorf("%.3f allocations per VI round trip (%v for %d, %v for %d), want 0", perRT, short, n, long, 10*n)
	}
}

// heldFrames counts the frames parked in vi's preConnQ.
func heldFrames(vi *VI) int {
	n := 0
	for m := vi.preConnQ; m != nil; m = m.next {
		n++
	}
	return n
}

// pairScribbled is env.pair with a third process that, every 100 ns of
// virtual time until both bodies have returned, overwrites the buffer of
// every frame on the Network's free list: whoever still reads a frame after
// releasing it reads garbage. It also records in e.maxHeld the most frames it
// saw parked in any one preConnQ.
func (e *env) pairScribbled(t *testing.T, a, b func(p *simnet.Proc, port *Port)) {
	t.Helper()
	running := 2
	done := func(body func(p *simnet.Proc, port *Port)) func(p *simnet.Proc, port *Port) {
		return func(p *simnet.Proc, port *Port) {
			defer func() { running-- }()
			body(p, port)
		}
	}
	e.sim.Spawn("scribbler", 0, func(p *simnet.Proc) {
		for running > 0 {
			n := 0
			for m := e.net.free; m != nil; m = m.next {
				if n++; n > 1<<16 {
					panic("the frame free list is a cycle: a frame was released twice")
				}
				buf := m.buf[:cap(m.buf)]
				for i := range buf {
					buf[i] = 0xEE
				}
			}
			for _, port := range e.net.ports {
				for _, vi := range port.vis {
					if vi != nil {
						e.maxHeld = max(e.maxHeld, heldFrames(vi))
					}
				}
			}
			p.Sleep(100)
		}
	})
	e.pair(t, done(a), done(b))
}

// pattern is message i of a test stream: size bytes, none of them the
// scribbler's.
func pattern(i, size int) []byte {
	b := make([]byte, size)
	for k := range b {
		b[k] = byte(i*31+k*7) & 0x7f
	}
	return b
}

// sendStream posts count messages of the stream, overwriting the send
// buffer the moment each post returns: the frames own their bytes from then.
func sendStream(t *testing.T, vi *VI, first, count, size int) {
	t.Helper()
	buf := make([]byte, size)
	for i := first; i < first+count; i++ {
		copy(buf, pattern(i, size))
		if err := vi.PostSend(&Descriptor{Buf: buf, Len: size}); err != nil {
			t.Error(err)
			return
		}
		for k := range buf {
			buf[k] = 0xFF
		}
	}
}

// recvStream reaps count messages and requires the stream, intact and in order.
func recvStream(t *testing.T, vi *VI, first, count, size int) {
	t.Helper()
	for i := first; i < first+count; i++ {
		d, err := vi.RecvWait(WaitPoll, -1)
		if err != nil {
			t.Errorf("message %d: %v", i, err)
			return
		}
		if d.XferLen != size || !bytes.Equal(d.Buf[:size], pattern(i, size)) {
			t.Errorf("message %d arrived damaged or out of order (%d bytes)", i, d.XferLen)
			return
		}
	}
}

func postRecvs(t *testing.T, vi *VI, count, size int) {
	t.Helper()
	for i := 0; i < count; i++ {
		if err := vi.PostRecv(&Descriptor{Buf: make([]byte, size)}); err != nil {
			t.Error(err)
		}
	}
}

// Payloads stay intact and FIFO while every free frame is being overwritten,
// across each way a frame travels: fragmented, parked in preConnQ behind a
// late handshake, dropped from preConnQ by a NACK reset, lost as a REQ to the
// fault plan, and as an RDMA write.
func TestFrameRecyclingKeepsPayloads(t *testing.T) {
	const size, count = 2500, 6 // three fragments a message at MTU 1000
	cost := ClanCost()
	cost.MTU = 1000

	t.Run("fragments", func(t *testing.T) {
		e := newEnv(2, 1, cost)
		addrs := make([]Addr, 2)
		body := func(me int) func(p *simnet.Proc, port *Port) {
			return func(p *simnet.Proc, port *Port) {
				addrs[me] = port.Addr()
				p.Sleep(10 * simnet.Microsecond)
				vi, _ := port.CreateVi()
				postRecvs(t, vi, count, size)
				if err := port.ConnectPeerRequest(vi, addrs[1-me], 5); err != nil {
					t.Error(err)
					return
				}
				if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != nil {
					t.Error(err)
					return
				}
				sendStream(t, vi, 100*me, count, size) // both directions at once
				recvStream(t, vi, 100*(1-me), count, size)
			}
		}
		e.pairScribbled(t, body(0), body(1))
	})

	// Crossing requests, every REQ delayed 60 us by the fault plan and B's
	// issued 45 us after A's: B's side is up 45 us before A's, and what B
	// sends at once waits in A's preConnQ to be replayed at establishment.
	t.Run("preConnQ", func(t *testing.T) {
		e := newEnv(2, 1, cost)
		e.net.SetFaults(&FaultPlan{DelayConnReq: 1, ConnReqDelay: 60 * simnet.Microsecond})
		addrs := make([]Addr, 2)
		body := func(me int) func(p *simnet.Proc, port *Port) {
			return func(p *simnet.Proc, port *Port) {
				addrs[me] = port.Addr()
				p.Sleep(simnet.Duration(10+45*me) * simnet.Microsecond)
				vi, _ := port.CreateVi()
				postRecvs(t, vi, count, size)
				if err := port.ConnectPeerRequest(vi, addrs[1-me], 3); err != nil {
					t.Error(err)
					return
				}
				if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != nil {
					t.Error(err)
					return
				}
				if me == 1 {
					sendStream(t, vi, 0, count, size)
				} else {
					recvStream(t, vi, 0, count, size)
				}
			}
		}
		e.pairScribbled(t, body(0), body(1))
		if e.maxHeld == 0 {
			t.Error("no frame was ever parked in preConnQ: the scenario did not happen")
		}
	})

	// Data reaches a VI whose request is then refused: the NACK reset drops
	// the held frames (back to the free list, where they are overwritten) and
	// nothing of them may surface on the connection made next.
	t.Run("nack", func(t *testing.T) {
		e := newEnv(2, 1, cost)
		addrs := make([]Addr, 2)
		e.pairScribbled(t,
			func(p *simnet.Proc, port *Port) {
				addrs[0] = port.Addr()
				p.Sleep(10 * simnet.Microsecond)
				vi, _ := port.CreateVi()
				postRecvs(t, vi, count, size)
				if err := port.ConnectPeerRequest(vi, addrs[1], 11); err != nil {
					t.Error(err)
					return
				}
				if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != ErrRejected {
					t.Errorf("first attempt: %v, want a rejection", err)
					return
				}
				if e.maxHeld != 2 || heldFrames(vi) != 0 {
					t.Errorf("after the NACK: %d frames seen held, %d still held; want 2, 0", e.maxHeld, heldFrames(vi))
				}
				if err := port.ConnectPeerRequest(vi, addrs[1], 22); err != nil {
					t.Error(err)
					return
				}
				if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != nil {
					t.Error(err)
					return
				}
				recvStream(t, vi, 0, count, size)
			},
			func(p *simnet.Proc, port *Port) {
				addrs[1] = port.Addr()
				for len(port.PendingPeerRequests()) == 0 {
					port.WaitActivity(WaitPoll)
				}
				req := port.PendingPeerRequests()[0]
				// Two data frames race ahead of the refusal (per-pair FIFO).
				for i := 0; i < 2; i++ {
					e.net.sendFrame(port, req.From.Ep, wireMsg{kind: kindData, srcEp: port.ep,
						dstVi: req.RemoteVi, seq: uint64(i), total: 900}, pattern(50+i, 900), 900)
				}
				port.Reject(req)
				for len(port.PendingPeerRequests()) == 0 {
					port.WaitActivity(WaitPoll)
				}
				req = port.PendingPeerRequests()[0]
				vi, _ := port.CreateVi()
				if err := port.ConnectPeerRequest(vi, req.From, req.Disc); err != nil {
					t.Error(err)
					return
				}
				if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != nil {
					t.Error(err)
					return
				}
				sendStream(t, vi, 0, count, size)
			})
	})

	// The first REQ is lost on the wire; the retry connects and carries data.
	t.Run("dropped REQ", func(t *testing.T) {
		e := newEnv(2, 1, cost)
		e.net.SetFaults(&FaultPlan{DropConnReq: 1})
		addrs := make([]Addr, 2)
		e.pairScribbled(t,
			func(p *simnet.Proc, port *Port) {
				addrs[0] = port.Addr()
				p.Sleep(10 * simnet.Microsecond)
				vi, _ := port.CreateVi()
				postRecvs(t, vi, count, size)
				if err := port.ConnectPeerRequest(vi, addrs[1], 7); err != nil {
					t.Error(err)
					return
				}
				if err := port.ConnectPeerWait(vi, WaitPoll, simnet.Millisecond); err != ErrTimeout {
					t.Errorf("first attempt: %v, want a timeout", err)
					return
				}
				if e.net.ConnReqsDropped != 1 {
					t.Errorf("%d REQs dropped, want 1", e.net.ConnReqsDropped)
				}
				e.net.SetFaults(nil)
				if err := port.CancelConnect(vi); err != nil {
					t.Error(err)
					return
				}
				if err := port.ConnectPeerRequest(vi, addrs[1], 7); err != nil {
					t.Error(err)
					return
				}
				if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != nil {
					t.Error(err)
					return
				}
				recvStream(t, vi, 0, count, size)
			},
			func(p *simnet.Proc, port *Port) {
				addrs[1] = port.Addr()
				for len(port.PendingPeerRequests()) == 0 {
					port.WaitActivity(WaitPoll)
				}
				req := port.PendingPeerRequests()[0]
				vi, _ := port.CreateVi()
				if err := port.ConnectPeerRequest(vi, req.From, req.Disc); err != nil {
					t.Error(err)
					return
				}
				if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != nil {
					t.Error(err)
					return
				}
				sendStream(t, vi, 0, count, size)
			})
	})

	t.Run("rdma", func(t *testing.T) {
		e := newEnv(2, 1, cost)
		target := make([]byte, size)
		var key uint64
		establishDataPairWith(t, e.pairScribbled,
			func(p *simnet.Proc, port *Port, vi *VI) {
				for key == 0 {
					p.Sleep(simnet.Microsecond)
				}
				buf := pattern(9, size)
				d := &Descriptor{Buf: buf, Len: size, RdmaKey: key}
				if err := vi.PostRdmaWrite(d); err != nil {
					t.Error(err)
					return
				}
				for k := range buf {
					buf[k] = 0xFF
				}
				if _, err := vi.SendWait(WaitPoll, -1); err != nil {
					t.Error(err)
				}
				sendStream(t, vi, 0, 1, 8) // tells B the write has landed (FIFO)
			},
			func(p *simnet.Proc, port *Port, vi *VI) {
				postRecvs(t, vi, 1, 8)
				k, _, err := port.RegisterRdmaTarget(target)
				if err != nil {
					t.Error(err)
					return
				}
				key = k
				recvStream(t, vi, 0, 1, 8)
				if !bytes.Equal(target, pattern(9, size)) {
					t.Error("RDMA-written bytes damaged")
				}
			})
	})
}

// Reserve makes what the next VIs take in one allocation a kind and is
// invisible to the model: no VI, no registration, no host time. The VIs carved
// from it are apart — a pool posted on one, a descriptor queued on another,
// stay where they were posted, and no receive queue is made ahead of a message
// — and a port asked for more VIs than it reserved grows as it always did.
func TestReserveCarvesApart(t *testing.T) {
	const n = 2
	e := newEnv(2, 1, ClanCost())
	e.pair(t,
		func(p *simnet.Proc, port *Port) {
			room, events := port.VIRoom(), e.sim.EventCount
			port.Reserve(n)
			if st := port.Stats(); st.VisCreated != 0 || port.Memory().Pinned() != 0 || port.debt != 0 ||
				port.VIRoom() != room || e.sim.EventCount != events {
				t.Errorf("Reserve showed: %d VIs, %d B pinned, %v of debt, room %d → %d, events %d → %d",
					st.VisCreated, port.Memory().Pinned(), port.debt, room, port.VIRoom(), events, e.sim.EventCount)
			}
			var vis []*VI
			for i := 0; i < n+1; i++ {
				vi, err := port.CreateVi()
				if err != nil {
					t.Error(err)
					return
				}
				vis = append(vis, vi)
			}
			if len(port.viSlab) != 0 {
				t.Errorf("%d VIs left in the slab after creating %d VIs", len(port.viSlab), n+1)
			}
			mark := &Descriptor{Buf: make([]byte, 8)}
			if err := vis[1].PostRecv(mark); err != nil {
				t.Error(err)
			}
			if err := vis[0].PostRecvPool(4, 8); err != nil {
				t.Error(err)
			}
			if k, _ := vis[0].RecvPool(); k != 4 || vis[0].recvQ.head != nil {
				t.Errorf("VI 0: pool of %d with %d descriptors queued, want 4 and none before a message claims one", k, len(vis[0].recvQ.list()))
			}
			if k, _ := vis[1].RecvPool(); k != 0 || !slices.Equal(vis[1].recvQ.list(), []*Descriptor{mark}) {
				t.Error("a pool posted on one VI of the slab showed on the next")
			}
			if cap(port.pendingIncoming) < n || cap(port.outgoing) < n {
				t.Errorf("handshake tables of cap %d and %d after Reserve(%d)", cap(port.pendingIncoming), cap(port.outgoing), n)
			}
		},
		func(p *simnet.Proc, port *Port) {})
}

// The port keeps two counts for an owner that polls many VIs: the sends
// posted and not yet reaped, over all VIs and however they leave the queues,
// and the VIs a peer's DISC has disconnected.
func TestPortCountsUnreapedSendsAndDisconnects(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	closed := false
	establishDataPair(t, e,
		func(p *simnet.Proc, port *Port, vi *VI) {
			post := func() {
				if err := vi.PostSend(&Descriptor{Buf: make([]byte, 8), Len: 8}); err != nil {
					t.Error(err)
				}
			}
			post()
			post()
			if got := port.UnreapedSends(); got != 2 {
				t.Errorf("%d unreaped sends after two posts", got)
			}
			if _, err := vi.SendWait(WaitPoll, -1); err != nil {
				t.Error(err)
			}
			if got := port.UnreapedSends(); got != 1 {
				t.Errorf("%d unreaped sends after reaping one of two", got)
			}
			post()
			vi.Close() // two still queued: Close drops them with the queue
			closed = true
			if got := port.UnreapedSends(); got != 0 {
				t.Errorf("%d unreaped sends after Close", got)
			}
			idle, _ := port.CreateVi()
			if err := idle.PostSend(&Descriptor{Buf: make([]byte, 8), Len: 8}); err != nil {
				t.Error(err)
			}
			if got := port.UnreapedSends(); got != 1 {
				t.Errorf("%d unreaped sends after a post the unconnected VI discarded", got)
			}
			if idle.SendDone() == nil || port.UnreapedSends() != 0 {
				t.Errorf("%d unreaped sends after reaping the discarded post", port.UnreapedSends())
			}
		},
		func(p *simnet.Proc, port *Port, vi *VI) {
			postRecvs(t, vi, 3, 8)
			if got := port.Disconnects(); got != 0 {
				t.Errorf("%d disconnects before the peer closed", got)
			}
			for !closed || vi.State() == ViConnected {
				port.WaitActivity(WaitPoll)
			}
			if got := port.Disconnects(); vi.State() != ViDisconnected || got != 1 {
				t.Errorf("state %v, %d disconnects after the peer's Close", vi.State(), got)
			}
			vi.Close()
			if got := port.Disconnects(); got != 1 {
				t.Errorf("%d disconnects after closing the disconnected VI: the count only rises", got)
			}
		})
}
