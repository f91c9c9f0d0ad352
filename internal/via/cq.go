package via

import "viampi/internal/simnet"

// CQ is a completion queue. VIs created with CreateViCQ deliver their receive
// completions here in arrival order, so a host can reap completions across
// many VIs with a single poll instead of scanning every VI (cf. VipCQDone /
// VipCQWait). The MPI progress engine uses one CQ per process for receives.
type CQ struct {
	port    *Port
	entries []cqEntry
}

// cqEntry is a completion and the VI it completed on, under the id the VI had
// then: Close leaves an entry in place, and the VI may be reissued before the
// owner reaps it.
type cqEntry struct {
	vi *VI
	id int
	d  *Descriptor
}

// NewCQ creates a completion queue on port.
func NewCQ(port *Port) *CQ { return &CQ{port: port} }

func (q *CQ) push(vi *VI, d *Descriptor) {
	q.entries = append(q.entries, cqEntry{vi, vi.id, d})
}

// Len returns the number of unreaped completions.
func (q *CQ) Len() int { return len(q.entries) }

// Done polls the CQ: it returns the oldest completion, removing both the CQ
// entry and the descriptor from its VI's receive queue, or (nil, nil). The VI
// is nil if it was closed and reissued since the completion: the descriptor
// is still the completion's, and the new life is none of its business.
func (q *CQ) Done() (*VI, *Descriptor) {
	q.port.ChargeHost(q.port.net.cost.PollOverhead)
	if len(q.entries) == 0 {
		return nil, nil
	}
	e := q.entries[0]
	q.entries = simnet.PopFront(q.entries)
	if e.vi.id != e.id {
		return nil, e.d
	}
	e.vi.recvQ.remove(e.d) // by search: the queue does not promise the completion is its head
	return e.vi, e.d
}

// Wait blocks until a completion is available (cf. VipCQWait). A negative
// timeout waits forever.
func (q *CQ) Wait(mode WaitMode, timeout simnet.Duration) (*VI, *Descriptor, error) {
	deadline := simnet.Time(-1)
	if timeout >= 0 {
		deadline = q.port.owner.Now().Add(timeout)
	}
	for {
		if vi, d := q.Done(); d != nil {
			return vi, d, nil
		}
		if deadline >= 0 {
			left := deadline.Sub(q.port.owner.Now())
			if left <= 0 || !q.port.WaitActivityTimeout(mode, left) {
				return nil, nil, ErrTimeout
			}
		} else {
			q.port.WaitActivity(mode)
		}
	}
}
