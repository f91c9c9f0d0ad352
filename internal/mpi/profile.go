package mpi

import (
	"viampi/internal/obs"
	"viampi/internal/simnet"
)

// profiler turns MPI entry points into call-span events (the moral
// equivalent of PMPI): only the outermost entry point on the call stack
// emits, so a Waitall inside Alltoall is charged to Alltoall, not
// double-counted. It exists exactly when the observability bus does; the
// per-call table is the obs.CallProfile fold over its events.
type profiler struct {
	proc  *simnet.Proc
	depth int
	rank  int32
	bus   *obs.Bus
}

// enter starts an entry point's span; the returned func ends it.
// A nil profiler (observability off) costs one branch.
func (p *profiler) enter(name string) func() {
	if p == nil {
		return func() {}
	}
	p.depth++
	if p.depth > 1 {
		return func() { p.depth-- }
	}
	p.bus.Emit(obs.Event{T: int64(p.proc.Now()), Kind: obs.EvCallBegin,
		Rank: p.rank, Peer: -1, Name: name})
	return func() {
		p.depth--
		p.bus.Emit(obs.Event{T: int64(p.proc.Now()), Kind: obs.EvCallEnd,
			Rank: p.rank, Peer: -1, Name: name})
	}
}
