// Package via is the fixture home of the layering and provider-rooted chargeflow cases.
package via

import (
	"fixmod/internal/fabric"
	"fixmod/internal/mpi" // layering violation: via may not import mpi
	"fixmod/internal/simnet"
)

// Network mirrors the real via.Network shape.
type Network struct {
	cluster *fabric.Cluster
}

// Port mirrors the real via.Port charging surface.
type Port struct{}

// ChargeHost is the fixture charging primitive (ChargeFuncs in the policy).
func (p *Port) ChargeHost(d int64) {}

// UnchargedSend reaches the fabric without paying — must flag.
func (n *Network) UnchargedSend() {
	n.cluster.Send(64) // chargeflow violation: no charge on the path from this exported entry point
}

// ChargedSend pays host cost before the transmit — must NOT flag.
func (n *Network) ChargedSend(p *Port) {
	p.ChargeHost(100)
	n.cluster.Send(64)
}

// Upward exists so the mpi import is used.
func Upward(m map[int]string) []string { return mpi.GoodSortedKeys(m) }

// onTimer is handed to the scheduler as a function value, so nothing in the
// module calls it: it runs in its own activation and must pay for its own
// transmit — chargeflow must flag it as an entry point even though it is
// unexported.
func (n *Network) onTimer() {
	n.cluster.Send(8) // chargeflow violation: callback transmits uncharged
}

// frame is a pre-allocated event object: the scheduler fires it through
// simnet.Action, so it is an entry point and must pay for its own transmit.
type frame struct{ n *Network }

func (f *frame) Fire(uint64) {
	f.n.cluster.Send(8) // chargeflow violation: event transmits uncharged
}

// WaitActivity parks in the scheduler loop, which fires frames meanwhile.
// The event edge is not followed: a blocking primitive does not transmit —
// must NOT flag.
func (p *Port) WaitActivity(s *simnet.Sim) { s.Park() }
