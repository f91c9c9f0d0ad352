package via

import (
	"fmt"
	"math"

	"viampi/internal/simnet"
)

// VI is a Virtual Interface endpoint: a bidirectional communication endpoint
// with a send work queue and a receive work queue (cf. VIPL's VIP_VI_HANDLE).
// A VI must be connected to exactly one remote VI before data can flow.
type VI struct {
	port *Port
	id   int // life<<lifeShift | slot: see ID

	remoteVi int
	disc     uint64

	viQueues

	recvCQ *CQ

	// rxCur is the receive the in-flight message is landing in; its XferLen
	// counts the bytes in so far.
	rxCur *Descriptor

	// preConnQ lists the data frames that arrived while the local side of
	// the handshake was still completing, oldest first, linked through the
	// frames' next. A peer may legitimately consider the connection
	// established and transmit slightly before our own transition fires; the
	// provider holds such frames and delivers them at establishment (reliable
	// delivery, as real VIA hardware guarantees).
	preConnQ *wireMsg

	seqOut, seqIn uint32 // data sequence, for assertions

	remoteEp int32
	state    ViState
	used     bool // carried a data message, in either direction (Port.VisUsed)

	// The counted pool (PostRecvPool): pool receives of poolCap bytes each,
	// posted and not yet claimed by a message. They are a number; a descriptor
	// exists, on recvQ, from a message's first fragment until the owner has
	// read it.
	pool, poolCap int32
}

// A VI id is the VI's slot in its port's table in the low half, and in the
// high half its life: how many times the slot's VI was closed and reissued.
const (
	lifeShift = 32
	slotMask  = 1<<lifeShift - 1
)

// viQueues are a VI's work queues, each a FIFO linked through its
// descriptors' next field, as VIPL links descriptors through their control
// segments: posting, reaping and Close move links and never allocate. Close
// empties both, and the VI's next life starts with none.
type viQueues struct {
	sendQ descQueue // posted sends; completed in order
	recvQ descQueue // posted receives (of a counted pool: the claimed ones); consumed in arrival order
}

// descQueue is a FIFO of descriptors, oldest at head, linked through next.
type descQueue struct{ head, tail *Descriptor }

func (q *descQueue) push(d *Descriptor) {
	if q.tail == nil {
		q.head = d
	} else {
		q.tail.next = d
	}
	q.tail = d
}

// popDone unlinks and returns the oldest descriptor if it has completed, else
// nil.
func (q *descQueue) popDone() *Descriptor {
	d := q.head
	if d == nil || !d.Done() {
		return nil
	}
	q.head, d.next = d.next, nil
	if q.head == nil {
		q.tail = nil
	}
	return d
}

// remove unlinks d from wherever it is on q; a d not on q is left alone.
func (q *descQueue) remove(d *Descriptor) {
	var prev *Descriptor
	for e := q.head; e != nil; prev, e = e, e.next {
		if e != d {
			continue
		}
		if prev == nil {
			q.head = d.next
		} else {
			prev.next = d.next
		}
		if q.tail == d {
			q.tail = prev
		}
		d.next = nil
		return
	}
}

// errQueued refuses the post of a descriptor still on a queue: linking it
// again would cut the queue it is on.
var errQueued = fmt.Errorf("%w: descriptor posted while still on a queue", ErrBadState)

// queued reports whether d is on one of its VI's queues: it is linked to a
// next descriptor, or it is a queue's last. (The stack of free landing
// descriptors links them too; no owner posts one of those.)
func (d *Descriptor) queued() bool {
	return d.next != nil || d.vi != nil && (d.vi.sendQ.tail == d || d.vi.recvQ.tail == d)
}

// ID returns the VI's id, unique within its port over the port's life: a
// closed VI is reissued by CreateVi in the same slot under the next life, and a
// frame or completion kept for the old id finds nothing under the new one.
func (vi *VI) ID() int { return vi.id }

// Slot is the VI's index in its port's table, the low half of its id: dense
// from 0, never above the most VIs the port has held live at once, and kept
// by the VI through every life.
func (vi *VI) Slot() int { return vi.id & slotMask }

// State returns the connection state.
func (vi *VI) State() ViState { return vi.state }

// Port returns the owning port.
func (vi *VI) Port() *Port { return vi.port }

// RecvPool returns the counted pool: the receives posted and unclaimed, and
// the capacity of each (0 on a VI that takes descriptors).
func (vi *VI) RecvPool() (n, capacity int) { return int(vi.pool), int(vi.poolCap) }

// markUsed counts the VI toward Port.VisUsed on its first data message.
func (vi *VI) markUsed() {
	if !vi.used {
		vi.used = true
		vi.port.visUsed++
	}
}

// SendQueueLen returns the number of posted, unreaped send descriptors.
func (vi *VI) SendQueueLen() int {
	n := 0
	for d := vi.sendQ.head; d != nil; d = d.next {
		n++
	}
	return n
}

// PostedSends is an iter.Seq of the posted, unreaped send descriptors, oldest
// first: `for d := range vi.PostedSends`. An owner about to Close the VI takes
// them back from here, where reaping them with SendDone would charge a poll
// each; they stay on the queue until Close, so the loop body may recycle each
// but not post it again. (A method rather than one returning the sequence: a
// closure holding vi would be allocated at every call.)
func (vi *VI) PostedSends(yield func(*Descriptor) bool) {
	for d := vi.sendQ.head; d != nil; d = d.next {
		if !yield(d) {
			return
		}
	}
}

// badState is the error for an operation the VI's current state forbids.
func (vi *VI) badState(op string) error {
	return fmt.Errorf("%w: %s in state %v", ErrBadState, op, vi.state)
}

// canPostRecv reports whether the VI's state takes a receive. VIA requires
// receives to be posted before the matching message arrives; posting is legal
// in any pre-connected or connected state.
func (vi *VI) canPostRecv() bool {
	return vi.state == ViIdle || vi.state == ViConnecting || vi.state == ViConnected
}

// PostRecv posts a receive descriptor that brings its landing buffer. One
// with no Buf is refused here, with ErrNoRoom: posted, it would break the
// connection at the first arrival. A VI that holds a counted pool takes no
// descriptors, and no VI takes one still on a queue (ErrBadState).
func (vi *VI) PostRecv(d *Descriptor) error {
	switch {
	case !vi.canPostRecv():
		return vi.badState("PostRecv")
	case vi.poolCap != 0:
		return vi.badState("PostRecv beside a counted pool")
	case d.queued():
		return errQueued
	case d.Buf == nil:
		return ErrNoRoom
	}
	d.vi = vi
	d.gen++
	d.Status = StatusPending
	d.XferLen = 0
	vi.port.ChargeHost(vi.port.net.cost.PostOverhead)
	vi.recvQ.push(d)
	return nil
}

// PostRecvPool posts n more receives of capacity bytes each, with no buffers:
// an eager pool is n identical receives, so the VI holds it as a count, and
// the port lends each message that claims one a descriptor of the network's
// stock with a landing buffer as long as the message, not the capacity (the
// owner hands both back with Port.ReturnLanding once it has read the message,
// and posts one more here). It is n posts to the model —
// PostOverhead each, through ChargeHost one at a time, so the debt is flushed
// at the instants n PostRecv calls flush it, and each receive is there for a
// message only once its own post is paid. A capacity of 0 or less is refused
// with ErrNoRoom; a VI takes descriptors or one pool of one capacity, never
// both (ErrBadState).
func (vi *VI) PostRecvPool(n, capacity int) error {
	switch {
	case !vi.canPostRecv():
		return vi.badState("PostRecvPool")
	case vi.poolCap == 0 && vi.recvQ.head != nil:
		return vi.badState("PostRecvPool beside posted descriptors")
	case vi.poolCap != 0 && int(vi.poolCap) != capacity:
		return vi.badState("PostRecvPool of a second capacity")
	case capacity <= 0 || capacity > math.MaxInt32:
		return ErrNoRoom
	}
	vi.poolCap = int32(capacity)
	for ; n > 0; n-- {
		vi.port.ChargeHost(vi.port.net.cost.PostOverhead)
		vi.pool++
	}
	return nil
}

// PostSend posts a send descriptor carrying d.Buf[:d.Len]. Per the VIA
// semantics the paper leans on, a send posted to an unconnected VI is
// *discarded*: it completes immediately with StatusNotConnected and no data
// is ever transferred. This is why the on-demand design must queue
// pre-connection sends above the VIA layer. A descriptor still on a queue is
// refused (ErrBadState) whatever the state.
func (vi *VI) PostSend(d *Descriptor) error {
	if d.queued() {
		return errQueued
	}
	d.vi = vi
	d.gen++
	vi.port.ChargeHost(vi.port.net.cost.PostOverhead)
	if vi.state != ViConnected {
		d.Status = StatusNotConnected
		vi.port.net.DiscardedSends++
		vi.queueSend(d)
		return nil
	}
	d.Status = StatusPending
	vi.queueSend(d)
	vi.transmit(d, wireMsg{kind: kindData, seq: uint64(vi.seqOut)})
	vi.seqOut++
	vi.markUsed()
	vi.port.stats.MsgsSent++
	vi.port.stats.BytesSent += int64(d.Len)
	return nil
}

// PostRdmaWrite posts a one-sided RDMA write of d.Buf[:d.Len] to the remote
// target (d.RdmaKey, d.RdmaOffset). The remote side is not notified and no
// remote receive descriptor is consumed.
//
// The bytes are placed in the target here, at the post, and the frames carry
// only headers and a wire length. No one can tell this from placing them at
// arrival: the target's owner may not read it before the completion that
// announces the write (see RegisterRdmaTarget), and frames are never lost. A
// key the target port does not hold places nothing; the first frame fails the
// run when it arrives.
func (vi *VI) PostRdmaWrite(d *Descriptor) error {
	switch {
	case vi.state != ViConnected:
		return vi.badState("PostRdmaWrite")
	case d.queued():
		return errQueued
	}
	d.vi = vi
	d.gen++
	d.Status = StatusPending
	vi.port.ChargeHost(vi.port.net.cost.PostOverhead)
	vi.queueSend(d)
	if dst := vi.port.net.ports[vi.remoteEp]; !dst.closed {
		if buf, ok := dst.rdmaTargets[d.RdmaKey]; ok {
			copy(buf[d.RdmaOffset:], d.Buf[:d.Len])
		}
	}
	vi.transmit(d, wireMsg{kind: kindRdma, rdmaKey: d.RdmaKey})
	vi.port.stats.BytesSent += int64(d.Len)
	return nil
}

// queueSend puts a posted descriptor on the send queue, where it stays until
// SendDone reaps it or Close drops the queue.
func (vi *VI) queueSend(d *Descriptor) {
	vi.sendQ.push(d)
	vi.port.unreaped++
}

// transmit fragments d.Buf[:d.Len] into MTU-sized frames, pushes them through
// NIC service and the fabric, and completes d when the NIC has accepted the
// last fragment. hdr carries the kind-specific header fields. A send's frame
// takes its own copy of its fragment (hardware would DMA from the pinned
// buffer before completion; completing before delivery means the sender may
// reuse its buffer). An RDMA write's frame carries none: PostRdmaWrite has
// placed the bytes in the target, and the frame charges the wire for them.
func (vi *VI) transmit(d *Descriptor, hdr wireMsg) {
	net := vi.port.net
	data := d.Buf[:d.Len]
	hdr.srcEp, hdr.srcVi, hdr.dstVi, hdr.total = vi.port.ep, vi.id, vi.remoteVi, len(data)
	var lastTx simnet.Time
	for {
		end := min(hdr.offset+net.cost.MTU, len(data))
		var frag []byte
		if hdr.kind != kindRdma {
			frag = data[hdr.offset:end]
		}
		lastTx = net.sendFrame(vi.port, int(vi.remoteEp), hdr, frag, end-hdr.offset)
		hdr.offset = end
		if end >= len(data) {
			break
		}
	}
	net.sim.AtAction(lastTx, (*txDone)(d), uint64(d.gen))
}

// txDone is a send descriptor as the scheduler event that completes it (the
// method stays off Descriptor's exported surface).
type txDone Descriptor

// Fire completes the post of generation gen, if it is still the
// descriptor's current post and nothing has failed it meanwhile.
func (t *txDone) Fire(gen uint64) {
	d := (*Descriptor)(t)
	if gen == uint64(d.gen) && d.Status == StatusPending {
		d.Status = StatusSuccess
		d.XferLen = d.Len
		d.vi.port.notifyActivity()
	}
}

// handleData processes an arriving data frame (scheduler context, after NIC
// receive service).
func (vi *VI) handleData(m *wireMsg) {
	p := vi.port
	if vi.state == ViConnecting {
		// The peer completed its side of the handshake first and already
		// transmitted; hold the frame until our transition fires.
		vi.hold(m)
		return
	}
	if vi.state != ViConnected {
		// Data raced with teardown; reliable delivery would break the
		// connection, which it already is. Drop.
		return
	}
	if vi.rxCur == nil {
		if m.seq != uint64(vi.seqIn) {
			p.net.sim.Failf("via: out-of-order message on vi %d@%d: seq %d want %d",
				vi.id, p.ep, m.seq, vi.seqIn)
			return
		}
		if m.offset != 0 {
			p.net.sim.Failf("via: fragment before message start on vi %d@%d", vi.id, p.ep)
			return
		}
		var next *Descriptor
		if vi.poolCap != 0 {
			// Counted pool: the message claims one of the receives, and lands
			// in a descriptor and buffer of the network's, as long as the
			// message, which the owner hands back when it has read it. One
			// too long for the pool's capacity claims and is lent nothing.
			if vi.pool > 0 && m.total <= int(vi.poolCap) {
				vi.pool--
				next = p.lendLanding(vi, m.total)
				vi.recvQ.push(next)
			}
		} else {
			// Consume the oldest still-pending receive descriptor (completed
			// ones may linger in the queue until the host reaps them).
			next = vi.recvQ.head
			for next != nil && next.Done() {
				next = next.next
			}
		}
		if next == nil || m.total > len(next.Buf) {
			// VIA reliable delivery: arriving data with no posted receive
			// descriptor, or none with room, breaks the connection.
			p.net.DroppedNoDescriptor++
			vi.enterError()
			return
		}
		vi.rxCur = next
	}
	d := vi.rxCur
	if m.offset != d.XferLen {
		p.net.sim.Failf("via: fragment gap on vi %d@%d: offset %d want %d",
			vi.id, p.ep, m.offset, d.XferLen)
		return
	}
	copy(d.Buf[m.offset:], m.data)
	d.XferLen += len(m.data)
	if d.XferLen >= m.total {
		vi.rxCur = nil
		vi.seqIn++
		d.Status = StatusSuccess
		d.XferLen = m.total
		vi.markUsed()
		p.stats.MsgsRecv++
		p.stats.BytesRecv += int64(m.total)
		if vi.recvCQ != nil {
			vi.recvCQ.push(vi, d)
		}
		p.notifyActivity()
	}
}

// hold parks a data frame that beat the local side of the handshake at the
// tail of preConnQ, which owns it from now on.
func (vi *VI) hold(m *wireMsg) {
	m.held = true
	tail := &vi.preConnQ
	for *tail != nil {
		tail = &(*tail).next
	}
	*tail = m
}

// deliverHeld replays frames that arrived before the connection transition
// completed, in arrival order, and frees them. Called exactly once at
// establishment.
func (vi *VI) deliverHeld() {
	m := vi.preConnQ
	vi.preConnQ = nil
	for m != nil {
		next := m.next
		m.held = false
		vi.handleData(m)
		vi.port.net.release(m)
		m = next
	}
}

// dropHeld frees the frames of a connection attempt that never established.
func (vi *VI) dropHeld() {
	for m := vi.preConnQ; m != nil; {
		next := m.next
		vi.port.net.release(m)
		m = next
	}
	vi.preConnQ = nil
}

// enterError transitions the VI to the error state and fails all pending
// descriptors, mirroring VIA's reliable-delivery teardown.
func (vi *VI) enterError() {
	vi.state = ViError
	vi.failPending(StatusErrorState)
	vi.port.notifyActivity()
}

// failPending completes every pending descriptor on both queues with status s.
func (vi *VI) failPending(s Status) {
	for _, q := range [...]*descQueue{&vi.sendQ, &vi.recvQ} {
		for d := q.head; d != nil; d = d.next {
			if !d.Done() {
				d.Status = s
			}
		}
	}
	if vi.rxCur != nil {
		vi.rxCur.XferLen = 0 // a failed receive transferred nothing
		vi.rxCur = nil
	}
}

// SendDone polls the send queue: if the oldest posted send has completed it
// is removed and returned, else nil (cf. VipSendDone).
func (vi *VI) SendDone() *Descriptor {
	vi.port.ChargeHost(vi.port.net.cost.PollOverhead)
	d := vi.sendQ.popDone()
	if d != nil {
		vi.port.unreaped--
	}
	return d
}

// RecvDone polls the receive queue (cf. VipRecvDone). VIs bound to a
// completion queue must be reaped through the CQ instead.
func (vi *VI) RecvDone() *Descriptor {
	if vi.recvCQ != nil {
		vi.port.net.sim.Failf("via: RecvDone on CQ-bound vi %d@%d", vi.id, vi.port.ep)
		return nil
	}
	vi.port.ChargeHost(vi.port.net.cost.PollOverhead)
	return vi.recvDone()
}

func (vi *VI) recvDone() *Descriptor { return vi.recvQ.popDone() }

// SendWait blocks until a send descriptor completes and returns it
// (cf. VipSendWait). A negative timeout waits forever.
func (vi *VI) SendWait(mode WaitMode, timeout simnet.Duration) (*Descriptor, error) {
	return vi.wait(mode, timeout, vi.SendDone)
}

// RecvWait blocks until a receive descriptor completes and returns it
// (cf. VipRecvWait).
func (vi *VI) RecvWait(mode WaitMode, timeout simnet.Duration) (*Descriptor, error) {
	if vi.recvCQ != nil {
		return nil, fmt.Errorf("%w: RecvWait on CQ-bound VI", ErrBadState)
	}
	return vi.wait(mode, timeout, func() *Descriptor {
		vi.port.ChargeHost(vi.port.net.cost.PollOverhead)
		return vi.recvDone()
	})
}

func (vi *VI) wait(mode WaitMode, timeout simnet.Duration, poll func() *Descriptor) (*Descriptor, error) {
	deadline := simnet.Time(-1)
	if timeout >= 0 {
		deadline = vi.port.owner.Now().Add(timeout)
	}
	for {
		if d := poll(); d != nil {
			return d, nil
		}
		if vi.state == ViError || vi.state == ViDisconnected || vi.state == ViClosed {
			return nil, fmt.Errorf("%w: %v", ErrBadState, vi.state)
		}
		if deadline >= 0 {
			left := deadline.Sub(vi.port.owner.Now())
			if left <= 0 || !vi.port.WaitActivityTimeout(mode, left) {
				return nil, ErrTimeout
			}
		} else {
			vi.port.WaitActivity(mode)
		}
	}
}

// resetHandshake returns a VI to the idle state, clearing the remote VI and
// any pre-connection frames from the failed attempt, so a reused VI can never
// match a stale descriptor or replay data from a connection that never
// established. The remote endpoint and discriminator stay: they name the
// abandoned attempt, whose late ACK still connects the VI. Posted
// receive descriptors survive: the pre-posted eager pool must still be there
// when the request is re-issued.
func (vi *VI) resetHandshake() {
	vi.state = ViIdle
	vi.remoteVi = -1
	vi.dropHeld()
}

// Close disconnects (notifying the peer) and destroys the VI, releasing its
// NIC slot. Pending descriptors complete with StatusDisconnected and leave
// the VI: a closed VI has nothing to reap. The port keeps the VI on its free
// list, and a later CreateVi reissues it under a new id: the caller's *VI
// reads as closed only until then.
func (vi *VI) Close() {
	if vi.state == ViClosed {
		return
	}
	switch vi.state {
	case ViConnected:
		vi.port.net.sendFrame(vi.port, int(vi.remoteEp), wireMsg{
			kind: kindDisc, srcEp: vi.port.ep, srcVi: vi.id, dstVi: vi.remoteVi,
		}, nil, 32)
	case ViConnecting:
		// Abandon the outstanding request so a late ACK or crossing REQ
		// cannot resurrect a VI that no longer exists.
		vi.port.dropOutgoing(vi)
	case ViIdle, ViError, ViDisconnected, ViClosed:
		// Nothing on the wire to retract: idle never sent, error/disconnect
		// already tore the connection down, and closed returned above.
	}
	vi.failPending(StatusDisconnected)
	// The descriptors carry their status now; the queues go, each descriptor
	// unlinked before anything else links it. A pool receive that failed with
	// a message part-way in is still the network's, on loan: nobody reads half
	// a message, so the port gives it back here. A completed one stays out: a
	// CQ entry names it, and the owner hands it back when it has reaped that
	// entry and read the message.
	for d := vi.recvQ.head; d != nil; {
		next := d.next
		d.next = nil
		if d.Status != StatusSuccess {
			vi.port.ReturnLanding(d)
		}
		d = next
	}
	for d := vi.sendQ.head; d != nil; {
		next := d.next
		d.next = nil
		vi.port.unreaped--
		d = next
	}
	vi.viQueues = viQueues{}
	vi.dropHeld()
	vi.state = ViClosed
	vi.port.vis[vi.Slot()] = nil
	vi.port.freeVIs = append(vi.port.freeVIs, vi)
	vi.port.liveVIs--
	vi.port.net.nodes[vi.port.node].openVIs--
	// Like enterError: a waiter parked in WaitActivity must observe the
	// descriptors that just failed, or it sleeps forever.
	vi.port.notifyActivity()
}
