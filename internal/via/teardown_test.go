package via

import (
	"bytes"
	"errors"
	"testing"

	"viampi/internal/simnet"
)

// Regression: VI.Close must notify port activity like enterError does. A
// waiter parked in RecvWait would otherwise sleep forever when the VI is
// closed out from under it (e.g. by a timer-driven teardown) — the sim
// deadline in pair() turns that hang into a test failure. Port.Close tears
// down every VI the same way, so it must wake the waiter too.
func TestCloseWakesRecvWaiter(t *testing.T) {
	for _, tc := range []struct {
		name  string
		close func(port *Port, vi *VI)
	}{
		{"VI.Close", func(_ *Port, vi *VI) { vi.Close() }},
		{"Port.Close", func(port *Port, _ *VI) { port.Close() }},
	} {
		e := newEnv(2, 1, ClanCost())
		establishDataPair(t, e,
			func(p *simnet.Proc, port *Port, vi *VI) {
				d := &Descriptor{Buf: make([]byte, 64)}
				if err := vi.PostRecv(d); err != nil {
					t.Error(err)
					return
				}
				p.Sim().After(simnet.Millisecond, func() { tc.close(port, vi) })
				got, err := vi.RecvWait(WaitPoll, -1)
				switch {
				case err != nil:
					if !errors.Is(err, ErrBadState) {
						t.Errorf("%s: RecvWait err = %v, want ErrBadState", tc.name, err)
					}
				case got.Status != StatusDisconnected:
					t.Errorf("%s: RecvWait status = %v, want Disconnected", tc.name, got.Status)
				}
			},
			func(p *simnet.Proc, port *Port, vi *VI) {
				// Keep the peer alive past the close so its DISC has a target.
				p.Sleep(2 * simnet.Millisecond)
			})
	}
}

// A Close on one side delivers kindDisc: the peer's VI transitions to
// ViDisconnected and its blocked waiters observe the teardown.
func TestDiscDelivery(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	establishDataPair(t, e,
		func(p *simnet.Proc, port *Port, vi *VI) {
			p.Sleep(100 * simnet.Microsecond)
			vi.Close()
			if vi.State() != ViClosed {
				t.Errorf("closer state = %v, want ViClosed", vi.State())
			}
		},
		func(p *simnet.Proc, port *Port, vi *VI) {
			d := &Descriptor{Buf: make([]byte, 64)}
			if err := vi.PostRecv(d); err != nil {
				t.Error(err)
				return
			}
			got, err := vi.RecvWait(WaitPoll, -1)
			switch {
			case err != nil:
				if !errors.Is(err, ErrBadState) {
					t.Errorf("RecvWait err = %v, want ErrBadState", err)
				}
			case got.Status != StatusDisconnected:
				t.Errorf("RecvWait status = %v, want Disconnected", got.Status)
			}
			if vi.State() != ViDisconnected {
				t.Errorf("peer state = %v, want ViDisconnected", vi.State())
			}
		})
}

// A NACK must fully reset the initiator's handshake state — remote
// endpoint, remote VI, discriminator, held frames — so the same VI can be
// reused for a fresh request (here under a different discriminator) without
// matching anything stale. Pins the kindConnNack reset audit.
func TestNackResetThenReuse(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	msg := []byte("after the retry")
	addrs := make([]Addr, 2)
	e.pair(t,
		func(p *simnet.Proc, port *Port) {
			addrs[0] = port.Addr()
			p.Sleep(10 * simnet.Microsecond)
			vi, err := port.CreateVi()
			if err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerRequest(vi, addrs[1], 11); err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != ErrRejected {
				t.Errorf("first connect err = %v, want ErrRejected", err)
				return
			}
			if vi.State() != ViIdle {
				t.Errorf("post-NACK state = %v, want ViIdle", vi.State())
			}
			// Reuse the same VI under a different discriminator.
			if err := port.ConnectPeerRequest(vi, addrs[1], 22); err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != nil {
				t.Error(err)
				return
			}
			d := &Descriptor{Buf: make([]byte, 64)}
			if err := vi.PostRecv(d); err != nil {
				t.Error(err)
				return
			}
			got, err := vi.RecvWait(WaitPoll, -1)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got.Buf[:got.XferLen], msg) {
				t.Errorf("received %q, want %q", got.Buf[:got.XferLen], msg)
			}
		},
		func(p *simnet.Proc, port *Port) {
			addrs[1] = port.Addr()
			// Refuse the first request, accept the second.
			for len(port.PendingPeerRequests()) == 0 {
				port.WaitActivity(WaitPoll)
			}
			req := port.PendingPeerRequests()[0]
			if req.Disc != 11 {
				t.Errorf("first disc = %d, want 11", req.Disc)
			}
			port.Reject(req)
			for len(port.PendingPeerRequests()) == 0 {
				port.WaitActivity(WaitPoll)
			}
			req = port.PendingPeerRequests()[0]
			if req.Disc != 22 {
				t.Errorf("second disc = %d, want 22", req.Disc)
			}
			vi, err := port.CreateVi()
			if err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerRequest(vi, req.From, req.Disc); err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != nil {
				t.Error(err)
				return
			}
			d := &Descriptor{Buf: append([]byte(nil), msg...), Len: len(msg)}
			if err := vi.PostSend(d); err != nil {
				t.Error(err)
				return
			}
			if _, err := vi.SendWait(WaitPoll, -1); err != nil {
				t.Error(err)
			}
		})
}

// Close while a fragmented send is still in flight: the local descriptor
// completes StatusDisconnected, but frames already accepted by the NIC
// deliver — the peer receives the full message, then the DISC.
func TestCloseDuringInFlightSend(t *testing.T) {
	cost := ClanCost()
	cost.MTU = 1000
	e := newEnv(2, 1, cost)
	msg := make([]byte, 8000)
	for i := range msg {
		msg[i] = byte(i * 13)
	}
	establishDataPair(t, e,
		func(p *simnet.Proc, port *Port, vi *VI) {
			d := &Descriptor{Buf: msg, Len: len(msg)}
			if err := vi.PostSend(d); err != nil {
				t.Error(err)
				return
			}
			vi.Close()
			if d.Status != StatusDisconnected {
				t.Errorf("send status = %v, want Disconnected", d.Status)
			}
		},
		func(p *simnet.Proc, port *Port, vi *VI) {
			d := &Descriptor{Buf: make([]byte, len(msg))}
			if err := vi.PostRecv(d); err != nil {
				t.Error(err)
				return
			}
			got, err := vi.RecvWait(WaitPoll, -1)
			if err != nil {
				t.Error(err)
				return
			}
			if got.XferLen != len(msg) || !bytes.Equal(got.Buf[:len(msg)], msg) {
				t.Error("in-flight message corrupted by sender close")
			}
			d2 := &Descriptor{Buf: make([]byte, 64)}
			if err := vi.PostRecv(d2); err != nil {
				t.Error(err)
				return
			}
			got2, err := vi.RecvWait(WaitPoll, -1)
			switch {
			case err != nil:
				if !errors.Is(err, ErrBadState) {
					t.Errorf("post-DISC RecvWait err = %v, want ErrBadState", err)
				}
			case got2.Status != StatusDisconnected:
				t.Errorf("post-DISC status = %v, want Disconnected", got2.Status)
			}
			if vi.State() != ViDisconnected {
				t.Errorf("post-DISC state = %v, want ViDisconnected", vi.State())
			}
		})
}

// CancelConnect abandons an outstanding request: the VI returns to ViIdle.
// The peer may already be answering it, and its late ACK connects the VI, for
// the peer is up; an ACK for any other attempt — another endpoint's, another
// discriminator's, one to a VI that never issued a request, or one to a closed
// VI's earlier life — changes nothing.
func TestCancelConnectAbandonsRequest(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	addrs := make([]Addr, 2)
	e.pair(t,
		func(p *simnet.Proc, port *Port) {
			addrs[0] = port.Addr()
			p.Sleep(10 * simnet.Microsecond)
			b := addrs[1]
			issueCancel := func(disc uint64) *VI {
				vi, err := port.CreateVi()
				if err != nil {
					t.Fatal(err)
				}
				if err := port.ConnectPeerRequest(vi, b, disc); err != nil {
					t.Fatal(err)
				}
				if err := port.CancelConnect(vi); err != nil {
					t.Fatal(err)
				}
				if vi.State() != ViIdle {
					t.Fatalf("post-cancel state = %v, want ViIdle", vi.State())
				}
				return vi
			}
			late := issueCancel(33)
			for late.State() == ViIdle && port.WaitActivityTimeout(WaitPoll, time10ms()) {
			}
			if late.State() != ViConnected {
				t.Errorf("late ACK for the cancelled attempt left the VI %v, want ViConnected", late.State())
			}

			ack := func(vi *VI, id, srcEp int, disc uint64) {
				port.dispatch(&wireMsg{kind: kindConnAck, srcEp: srcEp, srcVi: 0, dstVi: id, disc: disc})
				if vi.State() != ViIdle {
					t.Errorf("ACK from ep %d disc %d to id %#x moved the VI to %v", srcEp, disc, id, vi.State())
				}
			}
			other := issueCancel(40)
			ack(other, other.ID(), b.Ep+1, 40) // another endpoint
			ack(other, other.ID(), b.Ep, 41)   // another discriminator
			fresh, err := port.CreateVi()
			if err != nil {
				t.Fatal(err)
			}
			ack(fresh, fresh.ID(), b.Ep, 0)
			ack(fresh, fresh.ID(), addrs[0].Ep, 0) // the pair a zeroed VI would hold
			closed := issueCancel(50)
			gone := closed.ID()
			closed.Close()
			again := issueCancel(50) // the same slot, its next life, the same pair
			if again.ID() == gone || again.ID()&slotMask != gone&slotMask {
				t.Fatalf("reissued id %#x, closed %#x: want the same slot's next life", again.ID(), gone)
			}
			ack(again, gone, b.Ep, 50)
		},
		func(p *simnet.Proc, port *Port) {
			addrs[1] = port.Addr()
			// Answer the request the initiator cancelled.
			for len(port.PendingPeerRequests()) == 0 {
				port.WaitActivity(WaitPoll)
			}
			req := port.PendingPeerRequests()[0]
			vi, err := port.CreateVi()
			if err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerRequest(vi, req.From, req.Disc); err != nil {
				t.Error(err)
			}
		})
}

func time10ms() simnet.Duration { return 10 * simnet.Millisecond }

// Close fails the pending descriptors and lets go of them, and the port
// clears the VI's slot: the closed VI waits on the port's free list holding
// nothing it held while open.
func TestCloseDropsQueues(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	establishDataPair(t, e,
		func(p *simnet.Proc, port *Port, vi *VI) {
			recvs := make([]*Descriptor, 4)
			for i := range recvs {
				recvs[i] = &Descriptor{Buf: make([]byte, 64)}
				if err := vi.PostRecv(recvs[i]); err != nil {
					t.Fatal(err)
				}
			}
			send := &Descriptor{Buf: make([]byte, 64), Len: 64}
			if err := vi.PostSend(send); err != nil {
				t.Fatal(err)
			}
			vi.Close()
			for _, d := range append(recvs, send) {
				if d.Status != StatusDisconnected {
					t.Errorf("descriptor status after Close = %v, want disconnected", d.Status)
				}
			}
			if len(vi.sendQ.list())+len(vi.recvQ.list())+heldFrames(vi) != 0 || vi.SendDone() != nil {
				t.Errorf("closed VI still holds %d sends, %d receives, %d frames",
					len(vi.sendQ.list()), len(vi.recvQ.list()), heldFrames(vi))
			}
			if port.vis[vi.Slot()] != nil || len(port.freeVIs) != 1 || port.freeVIs[0] != vi {
				t.Error("the closed VI is still in its slot, or not on the port's free list")
			}
		},
		func(p *simnet.Proc, port *Port, vi *VI) {
			if err := vi.PostRecv(&Descriptor{Buf: make([]byte, 64)}); err != nil {
				t.Fatal(err)
			}
		})
}

// Under connection churn a port must not grow with the VIs it has closed:
// Close clears the VI's slot (a frame addressed to it finds nothing, as it
// found a closed VI before) and CreateVi reissues the closed VI in the same
// slot, so one VI at a time is one slot; the free VI's emptied work queues
// name no descriptor; and VisUsed — a counter, not a scan — still counts
// every VI that carried data, open or closed.
func TestClosedVIsAreNotRetained(t *testing.T) {
	const cycles = 40
	e := newEnv(2, 1, ClanCost())
	addrs := make([]Addr, 2)
	opened := 0
	body := func(me int) func(p *simnet.Proc, port *Port) {
		return func(p *simnet.Proc, port *Port) {
			addrs[me] = port.Addr()
			for opened++; opened < 2; {
				p.Sleep(simnet.Microsecond)
			}
			for i := 0; i < cycles; i++ {
				vi, err := port.CreateVi()
				if err != nil {
					t.Error(err)
					return
				}
				postRecvs(t, vi, 3, 64)
				if err := port.ConnectPeerRequest(vi, addrs[1-me], uint64(i+1)); err != nil {
					t.Error(err)
					return
				}
				if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != nil {
					t.Error(err)
					return
				}
				if me == 0 {
					// Every other connection carries a message; the rest stay unused.
					if i%2 == 0 {
						sendStream(t, vi, i, 1, 64)
						if _, err := vi.SendWait(WaitPoll, -1); err != nil {
							t.Error(err)
						}
					}
				} else {
					if i%2 == 0 {
						recvStream(t, vi, i, 1, 64)
					}
					for vi.State() == ViConnected {
						port.WaitActivity(WaitPoll)
					}
				}
				vi.Close()
			}
			if got := port.VisUsed(); got != cycles/2 {
				t.Errorf("port %d: VisUsed = %d after %d VIs of which every other carried data, want %d", me, got, cycles, cycles/2)
			}
			if len(port.vis) != 1 || port.vis[0] != nil {
				t.Errorf("port %d: %d VI slots after %d VIs one at a time, want 1, and empty", me, len(port.vis), cycles)
			}
			if len(port.outgoing) != 0 || len(port.freeVIs) != 1 {
				t.Fatalf("port %d: %d outgoing requests, %d free VIs after a one-VI-at-a-time churn, want 0 and 1",
					me, len(port.outgoing), len(port.freeVIs))
			}
			if q := port.freeVIs[0].viQueues; q != (viQueues{}) {
				t.Errorf("port %d: the free VI's work queues still name a descriptor", me)
			}
			if got, want := port.freeVIs[0].ID(), (cycles-1)<<lifeShift; got != want {
				t.Errorf("port %d: the slot's last VI has id %#x, want %#x: life %d of slot 0", me, got, want, cycles-1)
			}
		}
	}
	e.pair(t, body(0), body(1))
}

// Close leaves to its CQ entry a pool receive that completed and the owner
// has not reaped — the entry must find it as the message left it, and the
// owner hands it back once read — and has nothing else to hand anyone: the
// receives no message claimed were never descriptors.
func TestCloseReturnsUnfinishedRecvs(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	addrs := make([]Addr, 2)
	e.pair(t,
		func(p *simnet.Proc, port *Port) {
			addrs[0] = port.Addr()
			p.Sleep(10 * simnet.Microsecond)
			vi, err := port.CreateVi()
			if err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerRequest(vi, addrs[1], 5); err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != nil {
				t.Error(err)
				return
			}
			sendStream(t, vi, 0, 1, 64)
		},
		func(p *simnet.Proc, port *Port) {
			addrs[1] = port.Addr()
			cq := NewCQ(port)
			vi, err := port.CreateViCQ(cq)
			if err != nil {
				t.Error(err)
				return
			}
			if err := vi.PostRecvPool(4, 64); err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerRequest(vi, addrs[0], 5); err != nil {
				t.Error(err)
				return
			}
			for cq.Len() == 0 {
				port.WaitActivity(WaitPoll)
			}
			vi.Close()
			if free, made := e.net.Landing(); len(free) != 0 || made != 1 || port.LandingOut() != 1 {
				t.Errorf("after Close: %d landing descriptors free of %d made, %d out; want the completed one still out and nothing else ever made", len(free), made, port.LandingOut())
			}
			got, d := cq.Done()
			if got != vi || d.Status != StatusSuccess || !bytes.Equal(d.Buf[:d.XferLen], pattern(0, 64)) {
				t.Errorf("the completion left in the CQ did not survive its VI's Close intact")
			}
			port.ReturnLanding(d)
			if free, made := e.net.Landing(); len(free) != 1 || free[0] != d || made != 1 || port.LandingOut() != 0 {
				t.Errorf("after the entry was reaped and read: %d free of %d made, %d out; want the one descriptor back", len(free), made, port.LandingOut())
			}
		})
}

// A VI closed while its establishment is booked, then reissued and connecting
// elsewhere before the event fires: the event was booked for the earlier life
// and must not connect the new one. The provider's processing delay is
// stretched past a CreateVi and a request, so that the event outlives both.
func TestStaleEstablishAfterReissue(t *testing.T) {
	cost := ClanCost()
	cost.ConnectProcCost = simnet.Millisecond
	e := newEnv(2, 1, cost)
	addrs := make([]Addr, 2)
	e.pair(t,
		func(p *simnet.Proc, port *Port) {
			addrs[0] = port.Addr()
			for len(port.PendingPeerRequests()) == 0 {
				port.WaitActivity(WaitPoll)
			}
			vi, err := port.CreateVi()
			if err != nil {
				t.Fatal(err)
			}
			// B's request is pending: this matches it and books the establishment.
			if err := port.ConnectPeerRequest(vi, addrs[1], 1); err != nil {
				t.Fatal(err)
			}
			old := vi.ID()
			vi.Close()
			again, err := port.CreateVi()
			if err != nil {
				t.Fatal(err)
			}
			if again != vi || again.ID() == old {
				t.Fatalf("CreateVi after Close made a new VI or kept id %#x: the closed VI was not reissued", old)
			}
			if err := port.ConnectPeerRequest(again, addrs[1], 2); err != nil {
				t.Fatal(err)
			}
			p.Sleep(2 * cost.ConnectProcCost)
			if again.State() != ViConnecting {
				t.Errorf("the reissued VI is %v once its earlier life's establishment has fired, want still connecting", again.State())
			}
		},
		func(p *simnet.Proc, port *Port) {
			addrs[1] = port.Addr()
			p.Sleep(10 * simnet.Microsecond)
			vi, err := port.CreateVi()
			if err != nil {
				t.Fatal(err)
			}
			if err := port.ConnectPeerRequest(vi, addrs[0], 1); err != nil {
				t.Fatal(err)
			}
		})
}
