// Package simnet is the fixture twin of viampi's internal/simnet: it exposes
// the event interface hotalloc follows as an edge.
package simnet

// Action mirrors the real simnet.Action: a pre-allocated object the
// scheduler fires as its own event (Policy.EventEdges).
type Action interface{ Fire(arg uint64) }

// Sim mirrors the scheduler: Park runs the event loop in place, firing
// whatever device events come up while the process waits.
type Sim struct{ next Action }

// Park blocks the caller and fires the next event.
func (s *Sim) Park() { s.next.Fire(0) }
