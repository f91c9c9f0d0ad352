// Package simnet is the fixture twin of viampi's internal/simnet: it
// exposes the charging primitive the chargeflow rule credits, reachable
// from the fixture mpi package without the import cycle a via dependency
// would create (fixture via deliberately imports fixture mpi).
package simnet

// Proc mirrors the real simnet.Proc charging surface.
type Proc struct{}

// Compute charges CPU cost (ChargeFuncs in the policy).
func (p *Proc) Compute(d int64) {}

// Action mirrors the real simnet.Action: a pre-allocated object the
// scheduler fires as its own event (Policy.EventEdges).
type Action interface{ Fire(arg uint64) }

// Sim mirrors the scheduler: Park runs the event loop in place, firing
// whatever device events come up while the process waits.
type Sim struct{ next Action }

// Park blocks the caller; the events it fires meanwhile are not its work.
func (s *Sim) Park() { s.next.Fire(0) }
