// protocol.go is the fixture home of the wire-conformance cases. The
// dispatcher carries an explicit default, so the exhaustive rule's switch
// half is satisfied — everything flagged here is what its sender half adds
// on top: senders and dispatcher arms must agree in both directions.
package via

// dispatch is the registered dispatcher (Policy.WireKinds maps the
// wireMsg.kind tag field to it). The default is a fallback, not a handler, so
// the missing kindConnNack arm is still a conformance hole; the kindDisc
// arm is dead because nothing in the module sends it — both must flag.
func (p *Port) dispatch(m *wireMsg) int {
	switch m.kind {
	case kindConnReq:
		return 1
	case kindConnAck:
		return 2
	case kindDisc: // exhaustive violation: handled but never sent
		return 3
	default:
		return 0
	}
}

// SendReq constructs a handled kind via a composite literal — must NOT
// flag.
func SendReq() wireMsg { return wireMsg{kind: kindConnReq} }

// SendAck writes a handled kind via assignment — must NOT flag.
func SendAck() wireMsg {
	var m wireMsg
	m.kind = kindConnAck
	return m
}

// SendNack constructs a kind the dispatcher has no arm for — must flag
// (the receiver would silently drop the NACK: the PR 3 bug class).
func SendNack() wireMsg {
	return wireMsg{kind: kindConnNack} // exhaustive violation: sent but unhandled
}
