package via

import (
	"slices"
	"testing"

	"viampi/internal/simnet"
)

// dispatchKinds are the wire kinds FuzzPortDispatch delivers: every kind the
// dispatcher has an arm for, plus one it has no arm for (0). A kindRdma frame
// always carries its receiving port's registered key: an unknown key is a
// simulator assertion rather than a state change, which
// TestRdmaWriteToUnregisteredKeyFails covers.
var dispatchKinds = []wireKind{0, kindConnReq, kindConnAck, kindConnNack, kindDisc, kindData, kindOob, kindRdma}

// The operations FuzzPortDispatch mixes in with the frames, each made by A's
// process on one of A's VIs toward B or C: a connection request, its cancel,
// and a close.
const (
	opIssue wireKind = 0xf0 + iota
	opCancel
	opClose
)

// fuzzKinds are what a fuzzed step may do: deliver a frame of a dispatch kind,
// or make an operation.
var fuzzKinds = append(dispatchKinds[:len(dispatchKinds):len(dispatchKinds)], opIssue, opCancel, opClose)

// dispatchWaits are how long the fuzzed sender lets the scheduler run after a
// frame: not at all, less than a handshake's processing delay, or past it.
var dispatchWaits = []simnet.Duration{0, 10 * simnet.Microsecond, simnet.Millisecond}

// fuzzFrame is one fuzzed step: bit 0 of the first byte picks the receiving
// port, bit 7 makes C the sender in B's or A's place, and the bits between
// pick the kind; then srcVi, dstVi (both as fuzzVi reads them), disc (an RDMA
// write's fragment length), and the wait after it. An operation is made on
// A's VI dstVi, toward C if bit 7 is set and else toward B.
func fuzzFrame(toB bool, kind wireKind, srcVi, dstVi int8, disc, wait byte) []byte {
	b0 := byte(0)
	for i, k := range fuzzKinds {
		if k == kind {
			b0 = byte(i) << 1
		}
	}
	if toB {
		b0 |= 1
	}
	return []byte{b0, byte(srcVi), byte(dstVi), disc, wait}
}

// fromC makes C the sender of a fuzzed frame, or the far end of an operation.
func fromC(step []byte) []byte {
	step[0] |= 0x80
	return step
}

// fuzzVi reads a fuzzed VI id: a signed byte below 64 is the id itself, life
// 0 of its slot (so negative and unknown ids occur), and one from 64 up is life
// 1 of slot b-64.
func fuzzVi(b byte) int {
	if v := int(int8(b)); v < 64 {
		return v
	}
	return 1<<lifeShift | int(b-64)
}

// legalEdge reports whether a VI may move from one state to another: the
// connection lifecycle's edges (issue, handshake completes, a late ACK for an
// abandoned attempt — so only on a VI that issued one —, peer disconnect),
// plus the three any-state moves — a handshake reset to idle, Close, and a
// reliable-delivery break into error.
func legalEdge(from, to ViState, issued bool) bool {
	switch to {
	case ViIdle, ViClosed, ViError:
		return true
	case ViConnecting:
		return from == ViIdle
	case ViConnected:
		return from == ViConnecting || from == ViIdle && issued
	case ViDisconnected:
		return from == ViConnected
	}
	return false
}

// FuzzPortDispatch feeds decoded frames straight to Port.dispatch on a
// network of two ports whose VIs start idle, connecting and connected, one of
// them in its second life, and a third port without VIs, and has the first
// port's owner issue, cancel and close between the frames. It checks that
// nothing panics or trips a simulator assertion, that every state change a VI
// makes — at the step, or in the events it books — is an edge of the
// lifecycle, that a DATA or DISC frame addressed to no live VI's id changes
// nothing, that an RDMA write's frame changes no VI and counts its fragment's
// length into the port's RdmaBytes, and that each port's table of outstanding
// requests stays sorted and holds what the map it replaced would (outModel).
func FuzzPortDispatch(f *testing.F) {
	const A, B = false, true
	// A's VIs: 0 connected to B's 0 (disc 5), 1 idle, 2 connecting to B
	// (disc 1, never answered), in slot 3 life 1 (id 67 to fuzzVi)
	// connected to B's 1 (disc 6), its life 0 closed unconnected, and 4 and
	// 5 idle. C (endpoint 2) is a port of A's process.
	seed := func(frames ...[]byte) {
		var data []byte
		for _, fr := range frames {
			data = append(data, fr...)
		}
		f.Add(data)
	}
	// Crossing REQ: B's request for disc 1 meets A's outstanding one, and
	// the data frame held while connecting breaks the new connection.
	seed(fuzzFrame(A, kindData, 0, 2, 0, 0), fuzzFrame(A, kindConnReq, 0, 0, 1, 2))
	// A late ACK after the NACK that reset the attempt connects the VI; one
	// to the VI that never issued a request changes nothing.
	seed(fuzzFrame(A, kindConnNack, 0, 2, 1, 0), fuzzFrame(A, kindConnAck, 0, 2, 1, 2), fuzzFrame(A, kindConnAck, 0, 1, 0, 1))
	// DISC on a connecting VI is ignored; on a connected one it disconnects.
	seed(fuzzFrame(A, kindDisc, 0, 2, 0, 1), fuzzFrame(A, kindDisc, 0, 0, 0, 1), fuzzFrame(B, kindDisc, 0, 0, 0, 2))
	// Unknown and negative dstVi.
	seed(fuzzFrame(B, kindData, 0, 3, 0, 0), fuzzFrame(A, kindDisc, 0, -1, 0, 1), fuzzFrame(A, kindData, 0, 100, 0, 2))
	// DATA and DISC for slot 3's earlier life find nothing: the connected VI
	// in the slot now neither breaks (no receive is posted) nor disconnects.
	seed(fuzzFrame(A, kindData, 0, 3, 0, 0), fuzzFrame(A, kindDisc, 0, 3, 0, 1), fuzzFrame(A, kindData, 0, 67, 0, 2))
	// RDMA fragments to both ports, one of them empty, around a DISC.
	seed(fuzzFrame(A, kindRdma, 0, 0, 200, 0), fuzzFrame(B, kindRdma, 0, 1, 0, 1), fuzzFrame(A, kindDisc, 0, 0, 0, 0), fuzzFrame(A, kindRdma, 0, 0, 7, 2))
	// The table's shapes (TestOutgoingRequestTable). Requests to a descending
	// endpoint, then C's crossing REQ.
	seed(fromC(fuzzFrame(A, opIssue, 0, 4, 4, 0)), fuzzFrame(A, opIssue, 0, 5, 4, 0), fromC(fuzzFrame(A, kindConnReq, 9, 0, 4, 2)))
	// Two discriminators to one endpoint beside the setup's disc 1, and the
	// crossing REQ of the one issued first.
	seed(fuzzFrame(A, opIssue, 0, 4, 9, 0), fuzzFrame(A, opIssue, 0, 5, 3, 0), fuzzFrame(A, kindConnReq, 9, 0, 9, 2))
	// A second request under the setup's live pair takes it over; its
	// crossing REQ connects the new VI and the old stays connecting.
	seed(fuzzFrame(A, opIssue, 0, 4, 1, 0), fuzzFrame(A, kindConnReq, 9, 0, 1, 2))
	// Three requests around the setup's; a cancel, a close, a NACK and an
	// ACK each remove one from the middle, and a REQ crosses the last.
	middle := func(last []byte) {
		seed(fromC(fuzzFrame(A, opIssue, 0, 1, 1, 0)), fuzzFrame(A, opIssue, 0, 4, 7, 0), fuzzFrame(A, opIssue, 0, 5, 2, 0),
			last, fuzzFrame(A, kindConnReq, 9, 0, 2, 2))
	}
	middle(fuzzFrame(A, opCancel, 0, 4, 0, 0))
	middle(fuzzFrame(A, opClose, 0, 4, 0, 0))
	middle(fuzzFrame(A, kindConnNack, 0, 4, 7, 0))
	middle(fuzzFrame(A, kindConnAck, 9, 4, 7, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		e := newEnv(3, 1, ClanCost())
		peerOf := func(port *Port) *Port {
			ports := e.net.Ports()
			if ports[0] == port {
				return ports[1]
			}
			return ports[0]
		}
		establishDataPair(t, e,
			func(p *simnet.Proc, port *Port, vi *VI) {
				peer := peerOf(port)
				idle, err := port.CreateVi()
				if err != nil {
					t.Fatal(err)
				}
				connecting, err := port.CreateVi()
				if err != nil {
					t.Fatal(err)
				}
				if err := port.ConnectPeerRequest(connecting, peer.Addr(), 1); err != nil {
					t.Fatal(err)
				}
				gone, err := port.CreateVi()
				if err != nil {
					t.Fatal(err)
				}
				gone.Close()
				again, err := port.CreateVi()
				if err != nil {
					t.Fatal(err)
				}
				if err := port.ConnectPeerRequest(again, peer.Addr(), 6); err != nil {
					t.Fatal(err)
				}
				if err := port.ConnectPeerWait(again, WaitPoll, -1); err != nil || again.ID() != fuzzVi(67) {
					t.Fatalf("slot 3's second life: id %#x, %v", again.ID(), err)
				}
				spare, err := port.CreateVi()
				if err != nil {
					t.Fatal(err)
				}
				spare2, err := port.CreateVi()
				if err != nil {
					t.Fatal(err)
				}
				far, err := e.net.Open(p)
				if err != nil {
					t.Fatal(err)
				}
				// One RDMA target on each port, which every fuzzed RDMA frame
				// to the port addresses.
				keys := map[*Port]uint64{}
				for _, pt := range []*Port{port, peer} {
					k, _, err := pt.RegisterRdmaTarget(make([]byte, 256))
					if err != nil {
						t.Fatal(err)
					}
					keys[pt] = k
				}
				vis := []*VI{vi, idle, connecting, again, spare, spare2, peer.vis[0], peer.vis[1]}
				states := make([]ViState, len(vis))
				issued := make([]bool, len(vis))
				for i, v := range vis {
					states[i] = v.State()
					issued[i] = v != idle && v != spare && v != spare2
				}
				// Each port's table as the map it replaced would hold it, from
				// what the setup left; by endpoint.
				all := []*Port{port, peer, far}
				models := make([]outModel, len(all))
				for i, pt := range all {
					models[i] = outModel{}
					for _, o := range pt.outgoing {
						models[i][outKey{o.ep, o.disc}] = o.vi
					}
				}
				// live reports whether a VI of port's has the id: the test's own
				// oracle, not lookupVi's.
				live := func(port *Port, id int) bool {
					for _, v := range vis {
						if v.port == port && v.id == id && v.state != ViClosed {
							return true
						}
					}
					return false
				}
				observe := func(after string) {
					for i, v := range vis {
						if s := v.State(); s != states[i] {
							if !legalEdge(states[i], s, issued[i]) {
								t.Fatalf("after %s: vi %d@%d went %v → %v, not a lifecycle edge", after, v.id, v.port.ep, states[i], s)
							}
							states[i] = s
						}
					}
					for i, pt := range all {
						models[i].check(t, pt, after)
					}
				}
				for n := 0; n < 16 && len(data) >= 5; n++ {
					b := data[:5]
					data = data[5:]
					to, from := port, peer
					if b[0]&1 != 0 {
						to, from = peer, port
					}
					if b[0]&0x80 != 0 {
						from = far
					}
					kind := fuzzKinds[int(b[0]>>1&0x3f)%len(fuzzKinds)]
					if kind == opIssue || kind == opCancel || kind == opClose {
						// Made by A's owner on one of A's VIs, toward B or C.
						remote := peer
						if b[0]&0x80 != 0 {
							remote = far
						}
						if vi := port.lookupVi(fuzzVi(b[2])); vi != nil {
							switch kind {
							case opIssue:
								models[port.ep].issue(port, vi, remote.ep, uint64(b[3]))
								issued[slices.Index(vis, vi)] = true
								_ = port.ConnectPeerRequest(vi, remote.Addr(), uint64(b[3]))
							case opCancel:
								models[port.ep].drop(vi)
								_ = port.CancelConnect(vi)
							case opClose:
								models[port.ep].drop(vi)
								vi.Close()
							}
						}
						observe("operation")
						p.Sleep(dispatchWaits[int(b[4])%len(dispatchWaits)])
						observe("wait")
						continue
					}
					m := &wireMsg{
						kind:  kind,
						srcEp: from.ep, srcVi: fuzzVi(b[1]), dstVi: fuzzVi(b[2]), disc: uint64(b[3]),
					}
					if m.kind == kindRdma {
						m.rdmaKey, m.size = keys[to], e.net.cost.FrameHeaderBytes+int(b[3])
					}
					dst := m.dstVi
					stale := (kind == kindData || kind == kindDisc) && !live(to, dst)
					rdmaBytes := to.Stats().RdmaBytes
					models[to.ep].frame(kind, from.ep, m.disc)
					to.dispatch(m)
					held := m.held
					if !held {
						e.net.release(m)
					}
					for i, v := range vis {
						if (stale || kind == kindRdma) && (held || v.State() != states[i]) {
							t.Fatalf("a kind-%d frame for id %#x reached vi %#x@%d (%v → %v, held %v)",
								kind, dst, v.id, v.port.ep, states[i], v.State(), held)
						}
					}
					if want := rdmaBytes + int64(b[3]); kind == kindRdma && to.Stats().RdmaBytes != want {
						t.Fatalf("an RDMA frame of %d bytes moved RdmaBytes %d → %d", b[3], rdmaBytes, to.Stats().RdmaBytes)
					}
					observe("dispatch")
					p.Sleep(dispatchWaits[int(b[4])%len(dispatchWaits)])
					observe("wait")
				}
			},
			func(p *simnet.Proc, port *Port, vi *VI) {
				again, err := port.CreateVi()
				if err != nil {
					t.Fatal(err)
				}
				if err := port.ConnectPeerRequest(again, peerOf(port).Addr(), 6); err != nil {
					t.Fatal(err)
				}
			})
	})
}
