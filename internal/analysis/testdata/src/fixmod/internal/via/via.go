// Package via is the fixture home of the layering case and of the VI surface
// the paired cases share.
package via

import (
	"fixmod/internal/mpi" // layering violation: via may not import mpi
)

// Upward exists so the mpi import is used.
func Upward(m map[int]string) []string { return mpi.GoodSortedKeys(m) }

// Port mirrors the real via.Port.
type Port struct{}

func (p *Port) notifyActivity() {}

// Descriptor mirrors a posted work request.
type Descriptor struct{}

// VI mirrors the real VI: its port, its state and its send queue.
type VI struct {
	port  *Port
	state ViState
	sendQ []*Descriptor
}
