package via

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"viampi/internal/simnet"
)

// env bundles a simulation and a VIA network for tests.
type env struct {
	sim *simnet.Sim
	net *Network

	maxHeld int // see pairScribbled
}

func newEnv(nodes, ppn int, cost CostModel) *env {
	s := simnet.New(1)
	fcfg := ClanFabric(nodes, ppn)
	fcfg.Nodes = nodes
	fcfg.ProcsPerNode = ppn
	n := NewNetwork(s, fcfg, cost)
	return &env{sim: s, net: n}
}

// pair spawns two processes each owning a port and runs their bodies.
func (e *env) pair(t *testing.T, a, b func(p *simnet.Proc, port *Port)) {
	t.Helper()
	if err := e.runPair(t, a, b); err != nil {
		t.Fatal(err)
	}
}

// runPair is pair returning the run's error, for tests that expect one.
func (e *env) runPair(t *testing.T, a, b func(p *simnet.Proc, port *Port)) error {
	e.sim.SetDeadline(simnet.Time(10 * simnet.Second))
	pa := make(chan *Port, 1)
	pb := make(chan *Port, 1)
	e.sim.Spawn("a", 0, func(p *simnet.Proc) {
		port, err := e.net.Open(p)
		if err != nil {
			t.Error(err)
			return
		}
		pa <- port
		a(p, port)
	})
	e.sim.Spawn("b", 0, func(p *simnet.Proc) {
		port, err := e.net.Open(p)
		if err != nil {
			t.Error(err)
			return
		}
		pb <- port
		b(p, port)
	})
	return e.sim.Run()
}

func TestPeerToPeerConnectInitiatorFirst(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	var addrB Addr
	ready := false
	e.pair(t,
		func(p *simnet.Proc, port *Port) {
			for !ready {
				p.Sleep(simnet.Microsecond)
			}
			vi, err := port.CreateVi()
			if err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerRequest(vi, addrB, 7); err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != nil {
				t.Error(err)
				return
			}
			if vi.State() != ViConnected {
				t.Errorf("A state = %v", vi.State())
			}
		},
		func(p *simnet.Proc, port *Port) {
			addrB = port.Addr()
			ready = true
			// B discovers the incoming request by polling, then issues its
			// own peer request — the on-demand passive path.
			for len(port.PendingPeerRequests()) == 0 {
				port.WaitActivity(WaitPoll)
			}
			req := port.PendingPeerRequests()[0]
			if req.Disc != 7 {
				t.Errorf("disc = %d, want 7", req.Disc)
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
			}
		})
}

func TestPeerToPeerConnectCrossing(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	addrs := make([]Addr, 2)
	got := 0
	body := func(me, other int) func(p *simnet.Proc, port *Port) {
		return func(p *simnet.Proc, port *Port) {
			addrs[me] = port.Addr()
			p.Sleep(10 * simnet.Microsecond) // both sides have published addrs
			vi, err := port.CreateVi()
			if err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerRequest(vi, addrs[other], 99); err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != nil {
				t.Error(err)
				return
			}
			got++
		}
	}
	e.pair(t, body(0, 1), body(1, 0))
	if got != 2 {
		t.Fatalf("connected sides = %d, want 2", got)
	}
}

// outKey is the pair an outstanding request is kept under.
type outKey struct {
	ep   int
	disc uint64
}

// outModel is the rule the table of outstanding requests keeps, written as
// the map it replaced: an issue puts its VI under the pair, over whatever was
// there, unless a pending request answers it at once; a cancel or close of a
// connecting VI removes its pair's entry only if that entry names it; and a REQ,
// ACK or NACK for a pair removes its entry only while the VI it names is
// connecting, so a stale entry stays.
type outModel map[outKey]*VI

func (m outModel) issue(port *Port, vi *VI, ep int, disc uint64) {
	answered := slices.ContainsFunc(port.pendingIncoming, func(r PeerRequest) bool { return r.From.Ep == ep && r.Disc == disc })
	if vi.state == ViIdle && !answered {
		m[outKey{ep, disc}] = vi
	}
}

func (m outModel) drop(vi *VI) {
	if k := (outKey{int(vi.remoteEp), vi.disc}); vi.state == ViConnecting && m[k] == vi {
		delete(m, k)
	}
}

func (m outModel) frame(kind wireKind, ep int, disc uint64) {
	k := outKey{ep, disc}
	if v := m[k]; v != nil && v.state == ViConnecting && (kind == kindConnReq || kind == kindConnAck || kind == kindConnNack) {
		delete(m, k)
	}
}

// check fails t unless port's table is sorted by (ep, disc) with no pair twice
// and holds exactly what m holds.
func (m outModel) check(t *testing.T, port *Port, after string) {
	t.Helper()
	ok := len(port.outgoing) == len(m)
	for i, e := range port.outgoing {
		if i > 0 {
			prev := port.outgoing[i-1]
			ok = ok && (prev.ep < e.ep || prev.ep == e.ep && prev.disc < e.disc)
		}
		ok = ok && m[outKey{e.ep, e.disc}] == e.vi
	}
	if !ok {
		t.Fatalf("after %s: port %d's table %v, want the %d pairs %v in strict (ep, disc) order", after, port.ep, port.outgoing, len(m), m)
	}
}

// The table of outstanding requests is a slice sorted by (remote endpoint,
// discriminator) and keeps the matching rule of the map it replaced
// (outModel): requests issued out of order — to a descending endpoint, to one
// endpoint under two discriminators — sort into place, a second request under
// a live pair takes the entry over, a cancel, a close, a NACK or an ACK removes
// its own entry from the middle and no other, and a crossing REQ establishes
// the VI its pair names. One process owns the three ports; every frame to A is
// dispatched directly.
func TestOutgoingRequestTable(t *testing.T) {
	const B, C = 1, 2 // A is endpoint 0
	type op struct {
		do   string // issue, cancel, close, req, ack, nack
		vi   int    // A's VI, by index: the one acted on, or the one a req connects (-1: none)
		ep   int
		disc uint64
	}
	type entry struct {
		ep   int
		disc uint64
		vi   int
	}
	middle := []op{{"issue", 0, C, 1}, {"issue", 1, B, 7}, {"issue", 2, B, 2}}
	cases := []struct {
		name      string
		ops       []op
		want      []entry // the table at the end
		connected []int   // A's VIs up at the end
	}{
		{"descending endpoint",
			[]op{{"issue", 0, C, 4}, {"issue", 1, B, 4}, {"req", 0, C, 4}},
			[]entry{{B, 4, 1}}, []int{0}},
		{"one endpoint, two discriminators",
			[]op{{"issue", 0, B, 9}, {"issue", 1, B, 3}, {"req", 0, B, 9}},
			[]entry{{B, 3, 1}}, []int{0}},
		{"second request under a live pair",
			[]op{{"issue", 0, B, 5}, {"issue", 1, C, 1}, {"issue", 2, B, 5}, {"req", 2, B, 5}},
			[]entry{{C, 1, 1}}, []int{2}},
		{"cancel from the middle",
			append(middle, op{"cancel", 1, 0, 0}, op{"req", 0, C, 1}, op{"req", 2, B, 2}),
			nil, []int{0, 2}},
		{"close from the middle",
			append(middle, op{"close", 1, 0, 0}, op{"req", 2, B, 2}),
			[]entry{{C, 1, 0}}, []int{2}},
		{"NACK from the middle",
			append(middle, op{"nack", 1, B, 7}, op{"req", 0, C, 1}),
			[]entry{{B, 2, 2}}, []int{0}},
		{"ACK from the middle",
			append(middle, op{"ack", 1, B, 7}, op{"req", 2, B, 2}),
			[]entry{{C, 1, 0}}, []int{1, 2}},
		// A cancel or close of a replaced request leaves the entry of the
		// request that replaced it: the crossing REQ establishes that VI.
		{"cancel of a replaced request",
			[]op{{"issue", 0, B, 5}, {"issue", 2, B, 5}, {"cancel", 0, 0, 0}, {"req", 2, B, 5}},
			nil, []int{2}},
		{"close of a replaced request",
			[]op{{"issue", 0, B, 5}, {"issue", 2, B, 5}, {"close", 0, 0, 0}, {"req", 2, B, 5}},
			nil, []int{2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(3, 1, ClanCost())
			e.sim.SetDeadline(simnet.Time(simnet.Second))
			e.sim.Spawn("a", 0, func(p *simnet.Proc) {
				var ports [3]*Port
				for i := range ports {
					var err error
					if ports[i], err = e.net.Open(p); err != nil || ports[i].ep != i {
						t.Fatalf("port %d: endpoint %d, %v", i, ports[i].ep, err)
					}
				}
				a := ports[0]
				vis := make([]*VI, 3)
				for i := range vis {
					var err error
					if vis[i], err = a.CreateVi(); err != nil {
						t.Fatal(err)
					}
				}
				m := outModel{}
				var err error
				for i, o := range tc.ops {
					var vi *VI
					if o.vi >= 0 {
						vi = vis[o.vi]
					}
					switch o.do {
					case "issue":
						m.issue(a, vi, o.ep, o.disc)
						err = a.ConnectPeerRequest(vi, ports[o.ep].Addr(), o.disc)
					case "cancel":
						m.drop(vi)
						err = a.CancelConnect(vi)
					case "close":
						m.drop(vi)
						vi.Close()
					default:
						kind := map[string]wireKind{"req": kindConnReq, "ack": kindConnAck, "nack": kindConnNack}[o.do]
						m.frame(kind, o.ep, o.disc)
						// srcVi is 100 plus the step, for the check below; dstVi
						// names no VI, so only the table can match an ACK.
						a.dispatch(&wireMsg{kind: kind, srcEp: o.ep, srcVi: 100 + i, dstVi: -1, disc: o.disc})
					}
					if err != nil {
						t.Fatalf("step %d (%v): %v", i, o, err)
					}
					m.check(t, a, fmt.Sprintf("step %d (%v)", i, o))
				}
				p.Sleep(simnet.Millisecond) // past every booked establish
				var got []entry
				for _, o := range a.outgoing {
					got = append(got, entry{o.ep, o.disc, slices.Index(vis, o.vi)})
				}
				if !slices.Equal(got, tc.want) {
					t.Errorf("table %v, want %v", got, tc.want)
				}
				var up []int
				for i, vi := range vis {
					if vi.State() == ViConnected {
						up = append(up, i)
					}
				}
				if !slices.Equal(up, tc.connected) {
					t.Errorf("VIs %v connected, want %v", up, tc.connected)
				}
				// Each crossing REQ connected the VI its pair named, to the VI
				// it came from.
				for i, o := range tc.ops {
					if o.do != "req" || o.vi < 0 {
						continue
					}
					if vi := vis[o.vi]; int(vi.remoteEp) != o.ep || vi.disc != o.disc || vi.remoteVi != 100+i {
						t.Errorf("step %d's REQ for (%d, %d): VI %d holds (%d, %d) to remote VI %d", i, o.ep, o.disc, o.vi, vi.remoteEp, vi.disc, vi.remoteVi)
					}
				}
			})
			if err := e.sim.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A server answers a pending request by issuing the matching one, and refuses
// another with Reject.
func TestClientServerConnectAndReject(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	var serverAddr Addr
	haveAddr := false
	e.pair(t,
		func(p *simnet.Proc, port *Port) { // server
			serverAddr = port.Addr()
			haveAddr = true
			waitReq := func(disc uint64) PeerRequest {
				for {
					for _, req := range port.PendingPeerRequests() {
						if req.Disc == disc {
							return req
						}
					}
					port.WaitActivity(WaitPoll)
				}
			}
			req := waitReq(1)
			vi, err := port.CreateVi()
			if err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerRequest(vi, req.From, req.Disc); err != nil {
				t.Error(err)
				return
			}
			if len(port.PendingPeerRequests()) != 0 {
				t.Error("the matching request was not consumed")
			}
			// Second request gets rejected.
			port.Reject(waitReq(2))
		},
		func(p *simnet.Proc, port *Port) { // client
			for !haveAddr {
				p.Sleep(simnet.Microsecond)
			}
			vi, err := port.CreateVi()
			if err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerRequest(vi, serverAddr, 1); err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != nil {
				t.Errorf("first connect: %v", err)
				return
			}
			vi2, err := port.CreateVi()
			if err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerRequest(vi2, serverAddr, 2); err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerWait(vi2, WaitPoll, -1); err != ErrRejected {
				t.Errorf("second connect err = %v, want ErrRejected", err)
			}
			if vi2.State() != ViIdle {
				t.Errorf("rejected VI state = %v, want idle", vi2.State())
			}
		})
}

// establishDataPair wires two processes with a connected VI pair and then
// runs the two bodies.
func establishDataPair(t *testing.T, e *env, a, b func(p *simnet.Proc, port *Port, vi *VI)) {
	t.Helper()
	establishDataPairWith(t, e.pair, a, b)
}

// establishDataPairWith is establishDataPair over a given way of running the
// two processes (env.pair, or pairScribbled).
func establishDataPairWith(t *testing.T, pair func(t *testing.T, a, b func(p *simnet.Proc, port *Port)),
	a, b func(p *simnet.Proc, port *Port, vi *VI)) {
	t.Helper()
	addrs := make([]Addr, 2)
	pair(t,
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
			a(p, port, vi)
		},
		func(p *simnet.Proc, port *Port) {
			addrs[1] = port.Addr()
			p.Sleep(10 * simnet.Microsecond)
			vi, err := port.CreateVi()
			if err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerRequest(vi, addrs[0], 5); err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != nil {
				t.Error(err)
				return
			}
			b(p, port, vi)
		})
}

func TestDataTransferIntegrity(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	msg := []byte("hello, virtual interface architecture")
	establishDataPair(t, e,
		func(p *simnet.Proc, port *Port, vi *VI) {
			d := &Descriptor{Buf: append([]byte(nil), msg...), Len: len(msg)}
			if err := vi.PostSend(d); err != nil {
				t.Error(err)
				return
			}
			if got, err := vi.SendWait(WaitPoll, -1); err != nil || got.Status != StatusSuccess {
				t.Errorf("send completion: %v %v", got, err)
			}
		},
		func(p *simnet.Proc, port *Port, vi *VI) {
			d := &Descriptor{Buf: make([]byte, 1024)}
			if err := vi.PostRecv(d); err != nil {
				t.Error(err)
				return
			}
			got, err := vi.RecvWait(WaitPoll, -1)
			if err != nil {
				t.Error(err)
				return
			}
			if got.XferLen != len(msg) || !bytes.Equal(got.Buf[:got.XferLen], msg) {
				t.Errorf("received %q, want %q", got.Buf[:got.XferLen], msg)
			}
		})
}

func TestFragmentationLargeMessage(t *testing.T) {
	cost := ClanCost()
	cost.MTU = 1000
	e := newEnv(2, 1, cost)
	msg := make([]byte, 12345)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	establishDataPair(t, e,
		func(p *simnet.Proc, port *Port, vi *VI) {
			d := &Descriptor{Buf: msg, Len: len(msg)}
			if err := vi.PostSend(d); err != nil {
				t.Error(err)
			}
			if _, err := vi.SendWait(WaitPoll, -1); err != nil {
				t.Error(err)
			}
		},
		func(p *simnet.Proc, port *Port, vi *VI) {
			d := &Descriptor{Buf: make([]byte, 20000)}
			if err := vi.PostRecv(d); err != nil {
				t.Error(err)
			}
			got, err := vi.RecvWait(WaitPoll, -1)
			if err != nil {
				t.Error(err)
				return
			}
			if got.XferLen != len(msg) || !bytes.Equal(got.Buf[:len(msg)], msg) {
				t.Error("fragmented message corrupted")
			}
		})
}

func TestSenderBufferReuseAfterCompletion(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	establishDataPair(t, e,
		func(p *simnet.Proc, port *Port, vi *VI) {
			buf := []byte("first")
			d := &Descriptor{Buf: buf, Len: 5}
			if err := vi.PostSend(d); err != nil {
				t.Error(err)
			}
			if _, err := vi.SendWait(WaitPoll, -1); err != nil {
				t.Error(err)
			}
			copy(buf, "XXXXX") // scribble after local completion, before delivery
		},
		func(p *simnet.Proc, port *Port, vi *VI) {
			d := &Descriptor{Buf: make([]byte, 16)}
			if err := vi.PostRecv(d); err != nil {
				t.Error(err)
			}
			got, err := vi.RecvWait(WaitPoll, -1)
			if err != nil {
				t.Error(err)
				return
			}
			if string(got.Buf[:5]) != "first" {
				t.Errorf("got %q: sender scribble visible to receiver", got.Buf[:5])
			}
		})
}

func TestZeroLengthMessage(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	establishDataPair(t, e,
		func(p *simnet.Proc, port *Port, vi *VI) {
			d := &Descriptor{Buf: nil, Len: 0}
			if err := vi.PostSend(d); err != nil {
				t.Error(err)
			}
			if _, err := vi.SendWait(WaitPoll, -1); err != nil {
				t.Error(err)
			}
		},
		func(p *simnet.Proc, port *Port, vi *VI) {
			d := &Descriptor{Buf: make([]byte, 8)}
			if err := vi.PostRecv(d); err != nil {
				t.Error(err)
			}
			got, err := vi.RecvWait(WaitPoll, -1)
			if err != nil {
				t.Error(err)
				return
			}
			if got.XferLen != 0 {
				t.Errorf("XferLen = %d, want 0", got.XferLen)
			}
		})
}

func TestSendOnUnconnectedViDiscarded(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	e.pair(t,
		func(p *simnet.Proc, port *Port) {
			vi, err := port.CreateVi()
			if err != nil {
				t.Error(err)
				return
			}
			d := &Descriptor{Buf: []byte("lost"), Len: 4}
			if err := vi.PostSend(d); err != nil {
				t.Error(err)
				return
			}
			if d.Status != StatusNotConnected {
				t.Errorf("status = %v, want not-connected", d.Status)
			}
			if got := vi.SendDone(); got != d {
				t.Error("discarded send not reaped in FIFO order")
			}
		},
		func(p *simnet.Proc, port *Port) {})
	if e.net.DiscardedSends != 1 {
		t.Fatalf("DiscardedSends = %d, want 1", e.net.DiscardedSends)
	}
}

func TestRecvWithoutDescriptorBreaksConnection(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	establishDataPair(t, e,
		func(p *simnet.Proc, port *Port, vi *VI) {
			d := &Descriptor{Buf: []byte("boom"), Len: 4}
			if err := vi.PostSend(d); err != nil {
				t.Error(err)
			}
			p.Sleep(simnet.D(1e6)) // let it arrive
		},
		func(p *simnet.Proc, port *Port, vi *VI) {
			p.Sleep(simnet.D(1e6))
			if vi.State() != ViError {
				t.Errorf("state = %v, want error", vi.State())
			}
		})
	if e.net.DroppedNoDescriptor != 1 {
		t.Fatalf("DroppedNoDescriptor = %d, want 1", e.net.DroppedNoDescriptor)
	}
}

func TestMessageFIFOOrder(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	const n = 50
	establishDataPair(t, e,
		func(p *simnet.Proc, port *Port, vi *VI) {
			for i := 0; i < n; i++ {
				d := &Descriptor{Buf: []byte{byte(i)}, Len: 1}
				if err := vi.PostSend(d); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < n; i++ {
				if _, err := vi.SendWait(WaitPoll, -1); err != nil {
					t.Error(err)
					return
				}
			}
		},
		func(p *simnet.Proc, port *Port, vi *VI) {
			for i := 0; i < n; i++ {
				if err := vi.PostRecv(&Descriptor{Buf: make([]byte, 4)}); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < n; i++ {
				got, err := vi.RecvWait(WaitPoll, -1)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Buf[0] != byte(i) {
					t.Errorf("message %d carried %d: order violated", i, got.Buf[0])
					return
				}
			}
		})
}

func TestRdmaWrite(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	target := make([]byte, 64)
	var key uint64
	keyReady := false
	establishDataPair(t, e,
		func(p *simnet.Proc, port *Port, vi *VI) {
			for !keyReady {
				p.Sleep(simnet.Microsecond)
			}
			d := &Descriptor{Buf: []byte("rdma-payload"), Len: 12, RdmaKey: key, RdmaOffset: 8}
			if err := vi.PostRdmaWrite(d); err != nil {
				t.Error(err)
				return
			}
			if _, err := vi.SendWait(WaitPoll, -1); err != nil {
				t.Error(err)
			}
		},
		func(p *simnet.Proc, port *Port, vi *VI) {
			k, h, err := port.RegisterRdmaTarget(target)
			if err != nil {
				t.Error(err)
				return
			}
			key, keyReady = k, true
			p.Sleep(simnet.D(2e6))
			if string(target[8:20]) != "rdma-payload" {
				t.Errorf("target = %q", target[:24])
			}
			if err := port.ReleaseRdmaTarget(k, h); err != nil {
				t.Error(err)
			}
		})
	if e.net.ports[1].Stats().RdmaBytes != 12 {
		t.Fatalf("RdmaBytes = %d, want 12", e.net.ports[1].Stats().RdmaBytes)
	}
}

// An RDMA write's bytes are the post's: they are placed in the target when
// PostRdmaWrite returns, so the sender may overwrite its buffer before the
// write completes, and the frames carry headers only — no frame buffer on the
// free list has grown, though three fragments crossed the wire and RdmaBytes
// counts every byte.
func TestRdmaWriteLandsAtPost(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	const off = 8
	size := 3*e.net.cost.MTU - 100
	target := make([]byte, off+size+8)
	var key uint64
	keyReady := false
	establishDataPair(t, e,
		func(p *simnet.Proc, port *Port, vi *VI) {
			for !keyReady {
				p.Sleep(simnet.Microsecond)
			}
			d := &Descriptor{Buf: pattern(1, size), Len: size, RdmaKey: key, RdmaOffset: off}
			if err := vi.PostRdmaWrite(d); err != nil {
				t.Error(err)
				return
			}
			for k := range d.Buf {
				d.Buf[k] = 0xFF
			}
			if _, err := vi.SendWait(WaitPoll, -1); err != nil {
				t.Error(err)
			}
		},
		func(p *simnet.Proc, port *Port, vi *VI) {
			k, h, err := port.RegisterRdmaTarget(target)
			if err != nil {
				t.Error(err)
				return
			}
			key, keyReady = k, true
			for port.Stats().RdmaBytes < int64(size) {
				p.Sleep(simnet.Microsecond)
			}
			if err := port.ReleaseRdmaTarget(k, h); err != nil {
				t.Error(err)
			}
		})
	if got := e.net.ports[1].Stats().RdmaBytes; got != int64(size) {
		t.Errorf("RdmaBytes = %d, want %d", got, size)
	}
	want := append(append(make([]byte, off), pattern(1, size)...), make([]byte, 8)...)
	for k := range target {
		if target[k] != want[k] {
			t.Fatalf("target byte %d = %#x, want %#x (write of %d at offset %d)", k, target[k], want[k], size, off)
		}
	}
	n := 0
	for m := e.net.free; m != nil; m = m.next {
		if cap(m.buf) != 0 {
			t.Fatalf("a free frame holds a %d-byte buffer: an RDMA write's frame carried its fragment", cap(m.buf))
		}
		n++
	}
	if n < 3 {
		t.Fatalf("%d frames on the free list, want the write's 3 at least", n)
	}
}

// The arrival of an RDMA write's frame still checks its key: a target released
// between the post and the first fragment's arrival, or a key never
// registered, fails the run there.
func TestRdmaWriteToUnregisteredKeyFails(t *testing.T) {
	const size = 1000
	for _, released := range []bool{true, false} {
		e := newEnv(2, 1, ClanCost())
		target := make([]byte, size)
		key := uint64(99) // a key never registered; the released case registers its own
		keyReady, posted := !released, false
		var err error
		run := func(t *testing.T, a, b func(p *simnet.Proc, port *Port)) { err = e.runPair(t, a, b) }
		establishDataPairWith(t, run,
			func(p *simnet.Proc, port *Port, vi *VI) {
				for !keyReady {
					p.Sleep(simnet.Microsecond)
				}
				d := &Descriptor{Buf: pattern(2, size), Len: size, RdmaKey: key}
				if err := vi.PostRdmaWrite(d); err != nil {
					t.Error(err)
					return
				}
				posted = true
				if _, err := vi.SendWait(WaitPoll, -1); err != nil {
					t.Error(err)
				}
			},
			func(p *simnet.Proc, port *Port, vi *VI) {
				if !released {
					return
				}
				k, h, err := port.RegisterRdmaTarget(target)
				if err != nil {
					t.Error(err)
					return
				}
				key, keyReady = k, true
				for !posted {
					p.Sleep(simnet.Nanosecond)
				}
				if got := port.Stats().RdmaBytes; got != 0 {
					t.Errorf("released %d bytes in: the write arrived before the release", got)
				}
				if err := port.ReleaseRdmaTarget(k, h); err != nil {
					t.Error(err)
				}
			})
		if err == nil || !strings.Contains(err.Error(), "RDMA write to unknown key") {
			t.Errorf("released %v: run ended with %v, want an RDMA write to an unknown key", released, err)
		}
	}
}

func TestCompletionQueueAcrossVIs(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	addrs := make([]Addr, 2)
	e.pair(t,
		func(p *simnet.Proc, port *Port) { // sender with two VIs
			addrs[0] = port.Addr()
			p.Sleep(10 * simnet.Microsecond)
			var vis []*VI
			for disc := uint64(0); disc < 2; disc++ {
				vi, err := port.CreateVi()
				if err != nil {
					t.Error(err)
					return
				}
				if err := port.ConnectPeerRequest(vi, addrs[1], disc); err != nil {
					t.Error(err)
					return
				}
				vis = append(vis, vi)
			}
			for _, vi := range vis {
				if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != nil {
					t.Error(err)
					return
				}
			}
			for i, vi := range vis {
				d := &Descriptor{Buf: []byte{byte(i + 10)}, Len: 1}
				if err := vi.PostSend(d); err != nil {
					t.Error(err)
					return
				}
			}
		},
		func(p *simnet.Proc, port *Port) { // receiver reaps through one CQ
			addrs[1] = port.Addr()
			cq := NewCQ(port)
			p.Sleep(10 * simnet.Microsecond)
			for {
				reqs := port.PendingPeerRequests()
				if len(reqs) == 2 {
					break
				}
				port.WaitActivity(WaitPoll)
			}
			for len(port.PendingPeerRequests()) > 0 {
				req := port.PendingPeerRequests()[0]
				vi, err := port.CreateViCQ(cq)
				if err != nil {
					t.Error(err)
					return
				}
				if err := vi.PostRecv(&Descriptor{Buf: make([]byte, 4)}); err != nil {
					t.Error(err)
					return
				}
				if err := port.ConnectPeerRequest(vi, req.From, req.Disc); err != nil {
					t.Error(err)
					return
				}
			}
			seen := map[byte]bool{}
			for i := 0; i < 2; i++ {
				vi, d, err := cq.Wait(WaitPoll, -1)
				if err != nil || vi == nil {
					t.Errorf("cq wait: %v", err)
					return
				}
				seen[d.Buf[0]] = true
			}
			if !seen[10] || !seen[11] {
				t.Errorf("cq saw %v, want both 10 and 11", seen)
			}
		})
}

func TestMaxVIsLimit(t *testing.T) {
	cost := ClanCost()
	cost.MaxVIsPerPort = 3
	e := newEnv(2, 1, cost)
	e.pair(t,
		func(p *simnet.Proc, port *Port) {
			for i := 0; i < 3; i++ {
				if _, err := port.CreateVi(); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := port.CreateVi(); err == nil {
				t.Error("expected VI limit error")
			}
		},
		func(p *simnet.Proc, port *Port) {})
}

// TestMaxVIsLimitAfterChurn: the limit counts live VIs, not VIs ever
// created, and a repeated Close releases its slot only once.
func TestMaxVIsLimitAfterChurn(t *testing.T) {
	cost := ClanCost()
	cost.MaxVIsPerPort = 3
	e := newEnv(2, 1, cost)
	e.pair(t,
		func(p *simnet.Proc, port *Port) {
			var live []*VI
			for round := 0; round < 50; round++ {
				for len(live) < 3 {
					vi, err := port.CreateVi()
					if err != nil {
						t.Errorf("round %d, %d live: %v", round, len(live), err)
						return
					}
					live = append(live, vi)
				}
				if _, err := port.CreateVi(); !errors.Is(err, ErrTooManyVIs) {
					t.Errorf("round %d: create at the limit: got %v, want ErrTooManyVIs", round, err)
					return
				}
				closing := 1 + round%3
				for _, vi := range live[:closing] {
					vi.Close()
					vi.Close()
				}
				live = live[closing:]
			}
		},
		func(p *simnet.Proc, port *Port) {})
}

func TestPinnedMemoryLimit(t *testing.T) {
	m := &MemoryRegistry{limit: 1000}
	h1, err := m.Register(600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(500); err == nil {
		t.Fatal("expected pinned limit error")
	}
	if m.Pinned() != 600 || m.PeakPinned() != 600 {
		t.Fatalf("pinned=%d peak=%d", m.Pinned(), m.PeakPinned())
	}
	if err := m.Deregister(h1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(900); err != nil {
		t.Fatal(err)
	}
	if m.PeakPinned() != 900 {
		t.Fatalf("peak = %d, want 900", m.PeakPinned())
	}
	if err := m.Deregister(12345); err == nil {
		t.Fatal("expected unknown-handle error")
	}
}

// A handle is a slot and a life: Deregister refuses every handle that is not
// live — a second Deregister, one whose slot was issued again since, one for a
// life not yet issued, 0 and a number never issued — and a refusal leaves the
// pinned bytes and their peak as they were.
func TestMemoryRegistryRefusesDeadHandles(t *testing.T) {
	m := &MemoryRegistry{}
	pinned := func(cur, peak int64) {
		t.Helper()
		if m.Pinned() != cur || m.PeakPinned() != peak {
			t.Fatalf("pinned %d, peak %d; want %d and %d", m.Pinned(), m.PeakPinned(), cur, peak)
		}
	}
	refused := func(what string, h MemHandle) {
		t.Helper()
		cur, peak := m.Pinned(), m.PeakPinned()
		if err := m.Deregister(h); err == nil {
			t.Fatalf("%s (handle %#x) was deregistered", what, int64(h))
		}
		pinned(cur, peak)
	}
	a, errA := m.Register(100)
	b, errB := m.Register(200)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if err := m.Deregister(a); err != nil {
		t.Fatal(err)
	}
	pinned(200, 300)
	refused("a second Deregister", a)
	c, err := m.Register(300)
	if err != nil {
		t.Fatal(err)
	}
	if c&slotMask != a&slotMask || c == a {
		t.Fatalf("handles %#x then %#x: the freed slot was not issued again under a new life", int64(a), int64(c))
	}
	pinned(500, 500)
	refused("a handle whose slot was issued again", a)
	refused("a life not yet issued", c+1<<lifeShift)
	refused("handle 0", 0)
	refused("a handle never issued", 12345)
	for _, h := range []MemHandle{b, c} {
		if err := m.Deregister(h); err != nil {
			t.Fatal(err)
		}
	}
	pinned(0, 500)
	refused("a second Deregister of a reissued slot", c)
}

// pingpong measures one-way latency between two connected VIs with extraVIs
// additional idle endpoints open on each port.
func pingpongLatency(t *testing.T, cost CostModel, extraVIs int) simnet.Duration {
	t.Helper()
	e := newEnv(2, 1, cost)
	const iters = 20
	var oneWay simnet.Duration
	establishDataPair(t, e,
		func(p *simnet.Proc, port *Port, vi *VI) {
			for i := 0; i < extraVIs; i++ {
				if _, err := port.CreateVi(); err != nil {
					t.Error(err)
					return
				}
			}
			p.Sleep(simnet.Millisecond)
			for i := 0; i < iters+4; i++ {
				if err := vi.PostRecv(&Descriptor{Buf: make([]byte, 8)}); err != nil {
					t.Error(err)
					return
				}
			}
			p.Sleep(simnet.Millisecond)
			start := p.Now()
			for i := 0; i < iters; i++ {
				if err := vi.PostSend(&Descriptor{Buf: []byte{1, 2, 3, 4}, Len: 4}); err != nil {
					t.Error(err)
					return
				}
				if _, err := vi.SendWait(WaitPoll, -1); err != nil {
					t.Error(err)
					return
				}
				if _, err := vi.RecvWait(WaitPoll, -1); err != nil {
					t.Error(err)
					return
				}
			}
			oneWay = p.Now().Sub(start) / (2 * iters)
		},
		func(p *simnet.Proc, port *Port, vi *VI) {
			for i := 0; i < extraVIs; i++ {
				if _, err := port.CreateVi(); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < iters+4; i++ {
				if err := vi.PostRecv(&Descriptor{Buf: make([]byte, 8)}); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < iters; i++ {
				if _, err := vi.RecvWait(WaitPoll, -1); err != nil {
					t.Error(err)
					return
				}
				if err := vi.PostSend(&Descriptor{Buf: []byte{9, 9, 9, 9}, Len: 4}); err != nil {
					t.Error(err)
					return
				}
			}
		})
	return oneWay
}

// TestBviaLatencyGrowsWithVIs is the miniature of the paper's Figure 1: on
// Berkeley VIA, opening more (even idle) VIs raises latency; on cLAN it must
// not.
func TestBviaLatencyGrowsWithVIs(t *testing.T) {
	lowB := pingpongLatency(t, BviaCost(), 2)
	highB := pingpongLatency(t, BviaCost(), 60)
	if highB <= lowB {
		t.Errorf("BVIA latency with 60 extra VIs (%v) not above 2 extra VIs (%v)", highB, lowB)
	}
	lowC := pingpongLatency(t, ClanCost(), 2)
	highC := pingpongLatency(t, ClanCost(), 60)
	if highC != lowC {
		t.Errorf("cLAN latency changed with VI count: %v vs %v", lowC, highC)
	}
}

func TestSpinwaitWakeupPenalty(t *testing.T) {
	// Receiver waits in WaitSpin for a message that arrives long after the
	// spin budget: on cLAN it must pay the wakeup penalty.
	run := func(mode WaitMode) simnet.Duration {
		e := newEnv(2, 1, ClanCost())
		var waited simnet.Duration
		establishDataPair(t, e,
			func(p *simnet.Proc, port *Port, vi *VI) {
				p.Sleep(simnet.D(5e6)) // 5ms, far beyond the 20µs spin budget
				if err := vi.PostSend(&Descriptor{Buf: []byte{1}, Len: 1}); err != nil {
					t.Error(err)
				}
			},
			func(p *simnet.Proc, port *Port, vi *VI) {
				if err := vi.PostRecv(&Descriptor{Buf: make([]byte, 4)}); err != nil {
					t.Error(err)
					return
				}
				start := p.Now()
				if _, err := vi.RecvWait(mode, -1); err != nil {
					t.Error(err)
					return
				}
				waited = p.Now().Sub(start)
			})
		return waited
	}
	poll := run(WaitPoll)
	spin := run(WaitSpin)
	wake := ClanCost().WaitWakeup
	if spin < poll+wake {
		t.Errorf("spinwait %v not >= polling %v + wakeup %v", spin, poll, wake)
	}
}

// A receive poll that finds its message already landed costs the poller
// exactly one PollOverhead, whether it is a RecvDone or the first poll of a
// RecvWait: the charge moves the clock and nothing else does.
func TestRecvPollChargesPollOverhead(t *testing.T) {
	cost := ClanCost()
	for _, tc := range []struct {
		name string
		poll func(vi *VI) (*Descriptor, error)
	}{
		{"RecvDone", func(vi *VI) (*Descriptor, error) { return vi.RecvDone(), nil }},
		{"RecvWait", func(vi *VI) (*Descriptor, error) { return vi.RecvWait(WaitPoll, -1) }},
	} {
		e := newEnv(2, 1, cost)
		establishDataPair(t, e,
			func(p *simnet.Proc, port *Port, vi *VI) {
				if err := vi.PostSend(&Descriptor{Buf: []byte{1}, Len: 1}); err != nil {
					t.Error(err)
				}
			},
			func(p *simnet.Proc, port *Port, vi *VI) {
				if err := vi.PostRecv(&Descriptor{Buf: make([]byte, 4)}); err != nil {
					t.Error(err)
					return
				}
				p.Sleep(simnet.Millisecond) // the message lands meanwhile
				port.FlushDebt()
				start := p.Now()
				d, err := tc.poll(vi)
				port.FlushDebt()
				if err != nil || d == nil || d.Status != StatusSuccess {
					t.Errorf("%s: got %v, %v; want the landed message", tc.name, d, err)
					return
				}
				if got := p.Now().Sub(start); got != cost.PollOverhead {
					t.Errorf("%s advanced the clock %v, want PollOverhead %v", tc.name, got, cost.PollOverhead)
				}
			})
	}
}

func TestDisconnectPropagates(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	establishDataPair(t, e,
		func(p *simnet.Proc, port *Port, vi *VI) {
			vi.Close()
			if vi.State() != ViClosed {
				t.Errorf("local state = %v", vi.State())
			}
		},
		func(p *simnet.Proc, port *Port, vi *VI) {
			pending := &Descriptor{Buf: make([]byte, 4)}
			if err := vi.PostRecv(pending); err != nil {
				t.Error(err)
				return
			}
			p.Sleep(simnet.D(2e6))
			if vi.State() != ViDisconnected {
				t.Errorf("remote state = %v, want disconnected", vi.State())
			}
			if pending.Status != StatusDisconnected {
				t.Errorf("pending recv status = %v", pending.Status)
			}
		})
}

func TestOpenVIAccounting(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	e.pair(t,
		func(p *simnet.Proc, port *Port) {
			v1, err := port.CreateVi()
			if err != nil {
				t.Error(err)
				return
			}
			if _, err = port.CreateVi(); err != nil {
				t.Error(err)
				return
			}
			if got := e.net.OpenVIsOnNode(port.Node()); got != 2 {
				t.Errorf("open VIs = %d, want 2", got)
			}
			v1.Close()
			if got := e.net.OpenVIsOnNode(port.Node()); got != 1 {
				t.Errorf("open VIs after close = %d, want 1", got)
			}
			if port.Stats().VisCreated != 2 {
				t.Errorf("VisCreated = %d, want 2", port.Stats().VisCreated)
			}
		},
		func(p *simnet.Proc, port *Port) {})
}

func TestVisUsedCountsOnlyTraffic(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	establishDataPair(t, e,
		func(p *simnet.Proc, port *Port, vi *VI) {
			if _, err := port.CreateVi(); err != nil { // idle extra VI
				t.Error(err)
				return
			}
			if err := vi.PostSend(&Descriptor{Buf: []byte{1}, Len: 1}); err != nil {
				t.Error(err)
				return
			}
			if _, err := vi.SendWait(WaitPoll, -1); err != nil {
				t.Error(err)
				return
			}
			if port.VisUsed() != 1 {
				t.Errorf("VisUsed = %d, want 1", port.VisUsed())
			}
			if port.Stats().VisCreated != 2 {
				t.Errorf("VisCreated = %d, want 2", port.Stats().VisCreated)
			}
		},
		func(p *simnet.Proc, port *Port, vi *VI) {
			if err := vi.PostRecv(&Descriptor{Buf: make([]byte, 4)}); err != nil {
				t.Error(err)
				return
			}
			if _, err := vi.RecvWait(WaitPoll, -1); err != nil {
				t.Error(err)
			}
		})
}

// Property: any sequence of message sizes is delivered intact and in order,
// across both cost models.
func TestPropertyMessagesIntactInOrder(t *testing.T) {
	f := func(sizes []uint16, useBvia bool) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 16 {
			sizes = sizes[:16]
		}
		cost := ClanCost()
		if useBvia {
			cost = BviaCost()
		}
		cost.MTU = 2048 // force fragmentation for larger sizes
		e := newEnv(2, 1, cost)
		payloads := make([][]byte, len(sizes))
		for i, sz := range sizes {
			b := make([]byte, int(sz)%10000)
			for j := range b {
				b[j] = byte(i + j*13)
			}
			payloads[i] = b
		}
		ok := true
		establishDataPair(t, e,
			func(p *simnet.Proc, port *Port, vi *VI) {
				for _, pl := range payloads {
					if err := vi.PostSend(&Descriptor{Buf: pl, Len: len(pl)}); err != nil {
						ok = false
						return
					}
					if _, err := vi.SendWait(WaitPoll, -1); err != nil {
						ok = false
						return
					}
				}
			},
			func(p *simnet.Proc, port *Port, vi *VI) {
				for range payloads {
					if err := vi.PostRecv(&Descriptor{Buf: make([]byte, 10010)}); err != nil {
						ok = false
						return
					}
				}
				for i := range payloads {
					d, err := vi.RecvWait(WaitPoll, -1)
					if err != nil || d.XferLen != len(payloads[i]) ||
						!bytes.Equal(d.Buf[:d.XferLen], payloads[i]) {
						ok = false
						return
					}
				}
			})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestDataRacingConnectionHandshake is the regression test for the held
// pre-connection frame path: B's side of the handshake completes, and B
// transmits, while A is still waiting out its own processing delay. The
// requests cross, each delayed 60 us by the fault plan, and B issues its own
// 45 us after A's, so B is up first. A's VI must hold both early frames and
// deliver them in order at establishment — never drop or reorder them.
func TestDataRacingConnectionHandshake(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	e.net.SetFaults(&FaultPlan{DelayConnReq: 1, ConnReqDelay: 60 * simnet.Microsecond})
	addrs := make([]Addr, 2)
	held := 0
	var got []byte
	e.pair(t,
		func(p *simnet.Proc, port *Port) { // A: its side comes up last
			addrs[0] = port.Addr()
			p.Sleep(10 * simnet.Microsecond)
			vi, err := port.CreateVi()
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 4; i++ {
				if err := vi.PostRecv(&Descriptor{Buf: make([]byte, 16)}); err != nil {
					t.Error(err)
					return
				}
			}
			if err := port.ConnectPeerRequest(vi, addrs[1], 3); err != nil {
				t.Error(err)
				return
			}
			for vi.State() == ViConnecting {
				held = max(held, heldFrames(vi))
				p.Sleep(100)
			}
			for len(got) < 2 {
				if d, err := vi.RecvWait(WaitPoll, -1); err != nil {
					t.Error(err)
					return
				} else {
					got = append(got, d.Buf[0])
				}
			}
		},
		func(p *simnet.Proc, port *Port) { // B: up first, sends at once
			addrs[1] = port.Addr()
			p.Sleep(55 * simnet.Microsecond)
			vi, err := port.CreateVi()
			if err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerRequest(vi, addrs[0], 3); err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != nil {
				t.Error(err)
				return
			}
			for i := byte(1); i <= 2; i++ {
				if err := vi.PostSend(&Descriptor{Buf: []byte{i}, Len: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		})
	if held != 2 {
		t.Errorf("A held at most %d frames before its side came up, want both", held)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2] (held frames replayed in order)", got)
	}
}

func TestConnectPeerWaitTimeout(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	e.pair(t,
		func(p *simnet.Proc, port *Port) {
			vi, err := port.CreateVi()
			if err != nil {
				t.Error(err)
				return
			}
			// Request to a port that never answers.
			if err := port.ConnectPeerRequest(vi, Addr{Ep: 1}, 42); err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerWait(vi, WaitPoll, simnet.D(1e6)); err != ErrTimeout {
				t.Errorf("err = %v, want timeout", err)
			}
		},
		func(p *simnet.Proc, port *Port) {
			p.Sleep(simnet.D(2e6)) // alive but silent
		})
}

// TestStatusStrings pins every descriptor status's and wait mode's label,
// which protocol failure messages and reports print; a value that is no
// status gets the numbered fallback.
func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		StatusPending: "pending", StatusSuccess: "success", StatusNotConnected: "not-connected",
		StatusDisconnected: "disconnected", StatusErrorState: "error-state", 99: "Status(99)",
	} {
		if got := s.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", int(s), got, want)
		}
	}
	if WaitPoll.String() != "polling" || WaitSpin.String() != "spinwait" {
		t.Errorf("wait modes print %q and %q, want \"polling\" and \"spinwait\"", WaitPoll, WaitSpin)
	}
}

// TestViStateStrings pins every VI state's label; a value that is no state
// gets the numbered fallback.
func TestViStateStrings(t *testing.T) {
	for s, want := range map[ViState]string{
		ViIdle: "idle", ViConnecting: "connecting", ViConnected: "connected",
		ViError: "error", ViDisconnected: "disconnected", ViClosed: "closed", 99: "ViState(99)",
	} {
		if got := s.String(); got != want {
			t.Errorf("ViState(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}
