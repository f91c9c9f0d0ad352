package via

import (
	"testing"

	"viampi/internal/simnet"
)

// dispatchKinds are the wire kinds FuzzPortDispatch delivers: every kind the
// dispatcher has an arm for except kindRdma, whose unknown key is a simulator
// assertion rather than a state change, plus one it has no arm for (0).
var dispatchKinds = []byte{0, kindConnReq, kindConnAck, kindConnNack, kindDisc, kindData, kindOob}

// dispatchWaits are how long the fuzzed sender lets the scheduler run after a
// frame: not at all, less than a handshake's processing delay, or past it.
var dispatchWaits = []simnet.Duration{0, 10 * simnet.Microsecond, simnet.Millisecond}

// fuzzFrame is one fuzzed frame: bit 0 of the first byte picks the receiving
// port and the rest the kind; then srcVi, dstVi (both signed, so negative and
// unknown VIs occur), disc, and the wait after it.
func fuzzFrame(toB bool, kind byte, srcVi, dstVi int8, disc, wait byte) []byte {
	b0 := byte(0)
	for i, k := range dispatchKinds {
		if k == kind {
			b0 = byte(i) << 1
		}
	}
	if toB {
		b0 |= 1
	}
	return []byte{b0, byte(srcVi), byte(dstVi), disc, wait}
}

// legalEdge reports whether a VI may move from one state to another: the
// connection lifecycle's edges (issue or accept, handshake completes, peer
// disconnect), plus the three any-state moves — a handshake reset to idle,
// Close, and a reliable-delivery break into error.
func legalEdge(from, to ViState) bool {
	switch to {
	case ViIdle, ViClosed, ViError:
		return true
	case ViConnecting:
		return from == ViIdle
	case ViConnected:
		return from == ViConnecting
	case ViDisconnected:
		return from == ViConnected
	}
	return false
}

// FuzzPortDispatch feeds decoded frames straight to Port.dispatch on a
// two-port network whose VIs start idle, connecting and connected, and checks
// that nothing panics or trips a simulator assertion and that every state
// change a VI makes — at the dispatch, or in the events it books — is an edge
// of the lifecycle.
func FuzzPortDispatch(f *testing.F) {
	const A, B = false, true
	// A's VIs: 0 connected to B's 0 (disc 5), 1 idle, 2 connecting to B
	// (disc 1, never answered). B has only its 0.
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
	// A late ACK after the NACK that reset the attempt is ignored.
	seed(fuzzFrame(A, kindConnNack, 0, 2, 1, 0), fuzzFrame(A, kindConnAck, 0, 2, 1, 2))
	// DISC on a connecting VI is ignored; on a connected one it disconnects.
	seed(fuzzFrame(A, kindDisc, 0, 2, 0, 1), fuzzFrame(A, kindDisc, 0, 0, 0, 1), fuzzFrame(B, kindDisc, 0, 0, 0, 2))
	// Unknown and negative dstVi.
	seed(fuzzFrame(B, kindData, 0, 3, 0, 0), fuzzFrame(A, kindDisc, 0, -1, 0, 1), fuzzFrame(A, kindData, 0, 100, 0, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		e := newEnv(2, 1, ClanCost())
		establishDataPair(t, e,
			func(p *simnet.Proc, port *Port, vi *VI) {
				peer := e.net.Ports()[0]
				if peer == port {
					peer = e.net.Ports()[1]
				}
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
				vis := []*VI{vi, idle, connecting, peer.vis[0]}
				states := make([]ViState, len(vis))
				for i, v := range vis {
					states[i] = v.State()
				}
				observe := func(after string) {
					for i, v := range vis {
						if s := v.State(); s != states[i] {
							if !legalEdge(states[i], s) {
								t.Fatalf("after %s: vi %d@%d went %v → %v, not a lifecycle edge", after, v.id, v.port.ep, states[i], s)
							}
							states[i] = s
						}
					}
				}
				for n := 0; n < 16 && len(data) >= 5; n++ {
					b := data[:5]
					data = data[5:]
					to, from := port, peer
					if b[0]&1 != 0 {
						to, from = peer, port
					}
					m := &wireMsg{
						kind:  dispatchKinds[int(b[0]>>1)%len(dispatchKinds)],
						srcEp: from.ep, srcVi: int(int8(b[1])), dstVi: int(int8(b[2])), disc: uint64(b[3]),
					}
					to.dispatch(m)
					if !m.held {
						e.net.release(m)
					}
					observe("dispatch")
					p.Sleep(dispatchWaits[int(b[4])%len(dispatchWaits)])
					observe("wait")
				}
			},
			func(p *simnet.Proc, port *Port, vi *VI) {})
	})
}
