// enum.go is the fixture home of the exhaustive rule's discovery cases: two
// named iota enums, a connection state and a wire frame kind.
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

// wireKind mirrors the real provider's frame kinds (discovered the same way).
type wireKind uint8

const (
	kindConnReq wireKind = iota + 1
	kindConnAck
	kindConnNack
	kindDisc
)

// wireMsg mirrors the real provider's frame header.
type wireMsg struct {
	kind wireKind
}

// Dispatch misses kindConnNack and kindDisc with no default — must flag.
func Dispatch(m *wireMsg) int {
	switch m.kind {
	case kindConnReq:
		return 1
	case kindConnAck:
		return 2
	}
	return 0
}
