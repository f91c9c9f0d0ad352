// enum.go is the fixture home of the exhaustive rule's discovery cases: a
// named iota enum and a policy-tagged wire-code byte field.
package via

// ViState is the fixture's closed connection-state set (an iota block over
// a named module type — discovered automatically).
type ViState int

const (
	ViIdle ViState = iota
	ViConnecting
	ViConnected
	ViError
	ViClosed
)

// StateName misses ViClosed with no default — must flag.
func StateName(s ViState) string {
	switch s {
	case ViIdle:
		return "idle"
	case ViConnecting:
		return "connecting"
	case ViConnected:
		return "connected"
	case ViError:
		return "error"
	}
	return "?"
}

// StateClass handles every member across grouped cases — must NOT flag.
func StateClass(s ViState) string {
	switch s {
	case ViIdle, ViConnecting, ViConnected:
		return "live"
	case ViError, ViClosed:
		return "dead"
	}
	return "?"
}

// StateDefaulted relies on an explicit default legitimately — must NOT flag
// (not in ExhaustiveStrict).
func StateDefaulted(s ViState) bool {
	switch s {
	case ViConnected:
		return true
	default:
		return false
	}
}

// Wire-code byte block: untyped members over a basic type, keyed by
// Policy.WireKinds ("internal/via.(wireMsg).kind", anchor kindConnReq).
const (
	kindConnReq byte = iota + 1
	kindConnAck
	kindConnNack
	kindDisc
)

// wireMsg mirrors the real provider's frame header.
type wireMsg struct {
	kind byte
}

// Dispatch misses kindConnNack — must flag (the PR 3 bug class: half-reset
// handshake on NACK).
func Dispatch(m *wireMsg) int {
	switch m.kind {
	case kindConnReq:
		return 1
	case kindConnAck:
		return 2
	}
	return 0
}

// Poke exists so the locks fixture has a layered callee to re-enter.
func Poke() {}
