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
	// exists, in recvQ, from a message's first fragment until the owner has
	// read it.
	pool, poolCap int32
}

// A VI id is the VI's slot in its port's table in the low half, and in the
// high half its life: how many times the slot's VI was closed and reissued.
const (
	lifeShift = 32
	slotMask  = 1<<lifeShift - 1
)

// viQueues are a VI's work queues. Close empties them, and the VI keeps them
// for its next life.
type viQueues struct {
	sendQ []*Descriptor // posted sends, FIFO; completed in order
	recvQ []*Descriptor // posted receives (of a counted pool: the claimed ones), FIFO; consumed in arrival order
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

// Disc returns the discriminator the connection was established under.
func (vi *VI) Disc() uint64 { return vi.disc }

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
func (vi *VI) SendQueueLen() int { return len(vi.sendQ) }

// PostedSends returns the posted, unreaped send descriptors, oldest first: the
// live queue, good until the next post, SendDone or Close. An owner about to
// Close the VI takes them back from here, where reaping them with SendDone
// would charge a poll each.
func (vi *VI) PostedSends() []*Descriptor { return vi.sendQ }

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
// descriptors (ErrBadState).
func (vi *VI) PostRecv(d *Descriptor) error {
	switch {
	case !vi.canPostRecv():
		return vi.badState("PostRecv")
	case vi.poolCap != 0:
		return vi.badState("PostRecv beside a counted pool")
	case d.Buf == nil:
		return ErrNoRoom
	}
	d.vi = vi
	d.gen++
	d.Status = StatusPending
	d.XferLen = 0
	vi.port.ChargeHost(vi.port.net.cost.PostOverhead)
	vi.recvQ = append(vi.recvQ, d)
	return nil
}

// PostRecvPool posts n more receives of capacity bytes each, with no buffers:
// an eager pool is n identical receives, so the VI holds it as a count, and
// the port lends a descriptor and its landing buffer to each message that
// claims one (the owner hands both back with Port.ReturnLanding once it has
// read the message, and posts one more here). It is n posts to the model —
// PostOverhead each, through ChargeHost one at a time, so the debt is flushed
// at the instants n PostRecv calls flush it, and each receive is there for a
// message only once its own post is paid. A capacity of 0 or less is refused
// with ErrNoRoom; a VI takes descriptors or one pool of one capacity, never
// both (ErrBadState).
func (vi *VI) PostRecvPool(n, capacity int) error {
	switch {
	case !vi.canPostRecv():
		return vi.badState("PostRecvPool")
	case vi.poolCap == 0 && len(vi.recvQ) > 0:
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
// pre-connection sends above the VIA layer.
func (vi *VI) PostSend(d *Descriptor) error {
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
	if vi.state != ViConnected {
		return vi.badState("PostRdmaWrite")
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
	vi.sendQ = append(vi.sendQ, d)
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
	net.sim.AtAction(lastTx, (*txDone)(d), d.gen)
}

// txDone is a send descriptor as the scheduler event that completes it (the
// method stays off Descriptor's exported surface).
type txDone Descriptor

// Fire completes the post of generation gen, if it is still the
// descriptor's current post and nothing has failed it meanwhile.
func (t *txDone) Fire(gen uint64) {
	d := (*Descriptor)(t)
	if gen == d.gen && d.Status == StatusPending {
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
			// in a descriptor and buffer of the port's, which the owner hands
			// back when it has read it. One too long claims and is lent nothing.
			if vi.pool > 0 && m.total <= int(vi.poolCap) {
				vi.pool--
				next = p.lendLanding(vi)
				vi.recvQ = append(vi.recvQ, next)
			}
		} else {
			// Consume the oldest still-pending receive descriptor (completed
			// ones may linger in the queue until the host reaps them).
			for _, d := range vi.recvQ {
				if !d.Done() {
					next = d
					break
				}
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
	for _, d := range vi.sendQ {
		if !d.Done() {
			d.Status = s
		}
	}
	for _, d := range vi.recvQ {
		if !d.Done() {
			d.Status = s
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
	if len(vi.sendQ) > 0 && vi.sendQ[0].Done() {
		d := vi.sendQ[0]
		vi.sendQ = simnet.PopFront(vi.sendQ)
		vi.port.unreaped--
		return d
	}
	return nil
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

func (vi *VI) recvDone() *Descriptor {
	if len(vi.recvQ) > 0 && vi.recvQ[0].Done() {
		d := vi.recvQ[0]
		vi.recvQ = simnet.PopFront(vi.recvQ)
		return d
	}
	return nil
}

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
		delete(vi.port.outgoing, connKey{int(vi.remoteEp), vi.disc})
	case ViIdle, ViError, ViDisconnected, ViClosed:
		// Nothing on the wire to retract: idle never sent, error/disconnect
		// already tore the connection down, and closed returned above.
	}
	vi.failPending(StatusDisconnected)
	// The descriptors carry their status now; the queues go. A pool receive
	// that failed with a message part-way in is still the port's, on loan:
	// nobody reads half a message, so the port takes it back here. A completed
	// one stays out: a CQ entry names it, and the owner hands it back when it
	// has reaped that entry and read the message.
	for _, d := range vi.recvQ {
		if d.Status != StatusSuccess {
			vi.port.ReturnLanding(d)
		}
	}
	vi.port.unreaped -= len(vi.sendQ)
	// Whole backing arrays: a removal from the middle leaves a copy of the
	// last pointer past the end.
	clear(vi.sendQ[:cap(vi.sendQ)])
	clear(vi.recvQ[:cap(vi.recvQ)])
	vi.sendQ, vi.recvQ = vi.sendQ[:0], vi.recvQ[:0]
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
