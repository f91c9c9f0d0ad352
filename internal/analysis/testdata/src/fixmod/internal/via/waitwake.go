// waitwake.go is the fixture home of the single-body wait/wake pairing cases.
package via

// Status is the fixture descriptor-completion set; StatusPending is the
// policy-listed non-observable marker.
type Status int

const (
	StatusPending Status = iota
	StatusSuccess
	StatusDisconnected
)

// Descriptor mirrors the real completion surface a waiter polls.
type Descriptor struct {
	Status Status
}

// notifyActivity is the policy-listed waker.
func (p *Port) notifyActivity() {}

// VI mirrors the state machine the wakereach rule audits.
type VI struct {
	port  *Port
	state ViState
	sendQ []*Descriptor
}

// CloseBad moves the VI into a waiter-visible state and returns without a
// wake — must flag (the PR 3 VI.Close hang).
func CloseBad(vi *VI) {
	if vi.state == ViClosed {
		return
	}
	vi.state = ViClosed // wakereach violation: no waker on this path
}

// CloseGood wakes on every transitioning path — must NOT flag.
func CloseGood(vi *VI) {
	if vi.state == ViClosed {
		return
	}
	vi.state = ViClosed
	vi.port.notifyActivity()
}

// FailDeferred arms the wake before the transitions; a deferred waker runs
// at return, after every assignment — must NOT flag.
func FailDeferred(vi *VI, s Status) {
	defer vi.port.notifyActivity()
	for _, d := range vi.sendQ {
		d.Status = s
	}
}

// PostPending only marks descriptors pending (non-observable) — must NOT
// flag.
func PostPending(vi *VI, d *Descriptor) {
	d.Status = StatusPending
	vi.sendQ = append(vi.sendQ, d)
}
