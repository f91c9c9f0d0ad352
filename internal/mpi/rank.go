package mpi

import (
	"fmt"
	"slices"

	"viampi/internal/core"
	"viampi/internal/obs"
	"viampi/internal/simnet"
	"viampi/internal/via"
)

// chanState is the MPI layer's per-peer state riding on a core.Channel, as its
// UserData, through each of the channel's lives: credit-based flow control and
// the queue of packets waiting for credits.
type chanState struct {
	ch      *core.Channel // the peer is ch.Rank
	credits int32         // send credits toward the peer
	freed   int32         // receive buffers freed since the last credit return
	posted  int32         // receive buffers in our local pool (grows when dynamic)

	// Graceful-teardown state (VI-cap eviction / remote disconnect; the side
	// that sent the BYE has ch.Evicting set), with pendingClose below.
	pendingRdv int32 // rendezvous handshakes in flight on this channel
	umqRefs    int32 // unexpected RTS entries still referencing this channel
	closing    bool  // BYE handshake in progress; new sends are held

	userSends bool // carried an application message to this peer

	flowQ        pktQueue        // the paper's send FIFO (§3.4) while !ch.Up; packets short of credits after
	memHandles   []via.MemHandle // eager-pool registrations, released at teardown
	pendingClose pktQueue        // packets held while closing, re-posted after
}

// pkt is an outbound packet, possibly parked awaiting a connection or
// credits. Packets come from Rank.newPkt and return to its free list once
// emitted; until then one queue owns each: flowQ (parked before the channel
// is up, waiting for credits after) or pendingClose, both linked through
// next, as is the free list. A packet has one link, so it is on at most one
// of them.
type pkt struct {
	hdr     hdr
	payload []byte   // eager data: the caller's buffer until emit copies it
	req     *request // completes when the packet is actually posted to the VI
	next    *pkt
}

// pktQueue is a FIFO of packets, oldest at head, linked through next.
type pktQueue struct{ head, tail *pkt }

func (q *pktQueue) push(p *pkt) {
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
}

// pop unlinks and returns the oldest packet (the queue must not be empty).
func (q *pktQueue) pop() *pkt {
	p := q.head
	q.head, p.next = p.next, nil
	if q.head == nil {
		q.tail = nil
	}
	return p
}

// take empties the queue and returns its chain, oldest first.
func (q *pktQueue) take() *pkt {
	p := q.head
	*q = pktQueue{}
	return p
}

// len walks the queue (for the park, drain and credit-stall events, and tests).
func (q *pktQueue) len() int {
	n := 0
	for p := q.head; p != nil; p = p.next {
		n++
	}
	return n
}

// Rank is one MPI process: the user-facing handle passed to the program's
// main function and the home of the progress engine.
type Rank struct {
	proc *simnet.Proc
	port *via.Port
	cq   via.CQ
	mgr  core.Manager
	cfg  *Config

	rank int // world rank
	size int

	world *Comm

	// Per-peer channel state is sparse: every scan walks the manager's
	// rank-sorted table (Manager.Channels), as MVICH's device check walks its
	// per-destination table by rank, so footprint and per-poll scan cost are
	// O(live connections), not O(world size), whatever the creation order.
	peakLive int          // high-water mark of live channels (RankStats.PeakChans)
	bySlot   []*chanState // live channels by their VI's slot: what a CQ entry names (chanOf)
	addrs    []via.Addr   // shared bootstrap table (world rank -> VIA address)

	prq []*request // posted receive queue, post order
	umq []*umsg    // unexpected message queue, arrival order

	nextReq  int64
	sendReqs map[int64]*request // awaiting CTS; nil until the first (growRdvTable)
	recvReqs map[int64]*request // awaiting FIN; nil until the first

	// Free lists of the message path: packets; send descriptors with the
	// wire buffers they carry (tagged with the rank in UserPtr while out);
	// RDMA writes' descriptors (tagged with their list: the Buf they carry is
	// the caller's, dropped when recycleSend takes them back) — both lists
	// linked through UserPtr while a descriptor is on them (takeDesc);
	// requests, chained through their own next field (see release), with the
	// count growReqs has made, and the one list the library waits on its own
	// in (reqList); unexpected-queue entries, each keeping its payload buffer.
	freePkts  *pkt // linked through next
	freeSends *via.Descriptor
	freeRdma  *via.Descriptor
	freeReqs  *request
	reqsMade  int
	reqs      []Request
	freeUmsgs []*umsg
	coll      *[]byte // the blocking collectives' scratch (collScratch)

	// What reserve made for a mesh whose size the policy knew at Init, one
	// allocation, carved by cursor for a channel with no state from a past life.
	// An eager pool is a registration and a count on the VI: a receive
	// descriptor, with its buffer, is the port's, out only from a message's
	// first fragment until progressStep has read the message.
	chanSlab []chanState
	down     []*chanState // adoptDisconnects' scratch: channels whose VI the peer closed

	// What lets a poll skip the scans that would find nothing (see
	// adoptDisconnects and flowPass; the port and the manager keep the rest).
	seenDisconnects int  // Port.Disconnects at the last teardown scan
	cameUp          bool // a channel came up since the last flow pass

	// pastDests holds the peers of torn-down channels that had carried user
	// sends (RankStats.DistinctDests counts them with the live ones).
	pastDests map[int]bool

	ctxCounter int32

	initTime simnet.Duration
	appStart simnet.Time
	prof     *profiler

	// Observability (all nil/unused when the bus is off). The sequence
	// counters are sparse maps keyed by peer so tracing costs O(peers
	// talked to), not O(world size); map reads/writes on the hot send and
	// receive paths allocate nothing in steady state (hotalloc-pinned).
	bus     *obs.Bus
	phases  *obs.Phases
	sendSeq map[int]int64 // per-peer user-message sequence, send side
	recvSeq map[int]int64 // per-peer user-message sequence, receive side

	finalized bool

	// noSendFifo disables the paper's pre-posted send FIFO (§3.4): sends
	// issued before a connection completes are posted straight to the VIA
	// send queue, where the architecture discards them. Only the ablation
	// test sets it, to demonstrate the message loss the FIFO prevents.
	noSendFifo bool
}

// umsg is an entry in the unexpected message queue. Entries come from
// enqueueUnexpected and go back to the rank's free list once the receive that
// matched one has read it.
type umsg struct {
	h       hdr
	payload []byte     // eager only: a copy, in a buffer the entry keeps from message to message
	cs      *chanState // RTS only: held against teardown by umqRefs
}

// Rank returns this process's rank in the world communicator.
func (r *Rank) Rank() int { return r.rank }

// Size returns the number of processes.
func (r *Rank) Size() int { return r.size }

// World returns the world communicator.
func (r *Rank) World() *Comm { return r.world }

// Wtime returns elapsed virtual time in seconds (MPI_Wtime).
func (r *Rank) Wtime() float64 { return r.proc.Now().Seconds() }

// Compute charges d seconds of application computation to virtual time.
// NPB proxies use this to model their arithmetic phases.
func (r *Rank) Compute(seconds float64) {
	d := simnet.Duration(seconds * 1e9)
	r.proc.Compute(d)
	r.phases.Add(obs.PhaseCompute, int64(d))
}

// nowNs is the current virtual time as an event timestamp.
func (r *Rank) nowNs() int64 { return int64(r.proc.Now()) }

// obsSend stamps a user-level message send on the bus with its per-pair
// sequence number; the receive side assigns the same sequence on arrival, so
// the pair forms one flow in the trace.
func (r *Rank) obsSend(world, bytes, tag int) {
	if r.bus == nil {
		return
	}
	seq := r.sendSeq[world]
	r.sendSeq[world]++
	r.bus.Emit(obs.Event{T: r.nowNs(), Kind: obs.EvMsgSend,
		Rank: int32(r.rank), Peer: int32(world), A: int64(bytes), B: int64(tag), C: seq})
}

// obsRecv stamps the first wire appearance of a user message (its eager or
// RTS packet). VI delivery is FIFO per pair, so arrival order matches send
// order and the per-pair counters line up.
func (r *Rank) obsRecv(cs *chanState, h hdr) {
	if r.bus == nil {
		return
	}
	seq := r.recvSeq[cs.ch.Rank]
	r.recvSeq[cs.ch.Rank]++
	r.bus.Emit(obs.Event{T: r.nowNs(), Kind: obs.EvMsgRecv,
		Rank: int32(r.rank), Peer: int32(cs.ch.Rank), A: int64(h.size), B: int64(h.tag), C: seq})
}

// obsGauge reports an instantaneous per-rank quantity (e.g. pinned bytes).
func (r *Rank) obsGauge(name string, v int64) {
	if r.bus == nil {
		return
	}
	r.bus.Emit(obs.Event{T: r.nowNs(), Kind: obs.EvGauge,
		Rank: int32(r.rank), Peer: -1, Name: name, A: v})
}

// Proc exposes the underlying simulated process (for harness integration).
func (r *Rank) Proc() *simnet.Proc { return r.proc }

// Port exposes the underlying VIA port (for harness statistics).
func (r *Rank) Port() *via.Port { return r.port }

// Manager exposes the connection manager (for harness statistics).
func (r *Rank) Manager() core.Manager { return r.mgr }

// InitTime returns the virtual duration of this rank's MPI_Init (bootstrap
// plus eager connection setup), the quantity in Figure 8.
func (r *Rank) InitTime() simnet.Duration { return r.initTime }

// Abort terminates the whole job immediately (MPI_Abort): Run returns an
// error carrying the code and message, and no further communication
// happens.
func (r *Rank) Abort(code int, msg string) {
	r.proc.Sim().Failf("mpi: rank %d called Abort(%d): %s", r.rank, code, msg)
	// Stop executing user code in this rank; the simulator unwinds the
	// whole job via the recorded failure.
	panic(abortPanic{})
}

// abortPanic marks an intentional job abort so Run's recovery (in simnet)
// reports the Failf message rather than a spurious process panic.
type abortPanic struct{}

// ---------------------------------------------------------------------------
// Channel lifecycle (hooks given to the connection manager)

// prepareChannel pre-posts the eager receive pool on a fresh VI, before the
// connection can complete — so data can never arrive without a descriptor.
func (r *Rank) prepareChannel(ch *core.Channel) {
	initial := r.cfg.initialPool()
	cs := r.newChanState(ch, initial)
	r.peakLive = max(r.peakLive, len(r.mgr.Channels()))
	s := ch.Vi.Slot()
	if s >= len(r.bySlot) {
		r.growBySlot(s)
	}
	r.bySlot[s] = cs
	r.growPool(cs, initial)
}

// growBySlot extends the slot table to hold slot s (cold path: like the
// port's own, it settles at the most VIs live at once). The first growth makes
// room for eight, so that the few channels of an on-demand rank take one
// allocation.
func (r *Rank) growBySlot(s int) {
	n := len(r.bySlot)
	if s >= cap(r.bySlot) {
		r.bySlot = slices.Grow(r.bySlot, max(s+1, 2*n, 8)-n)
	}
	r.bySlot = r.bySlot[:s+1]
	clear(r.bySlot[n:])
}

// chanOf returns the live channel whose VI is vi, or nil: for a nil vi (a
// completion on a VI since reissued, see via.CQ.Done), a slot no channel
// holds (its VI was torn down), or a slot whose channel is on another VI.
func (r *Rank) chanOf(vi *via.VI) *chanState {
	if vi == nil {
		return nil
	}
	s := vi.Slot()
	if s >= len(r.bySlot) {
		return nil
	}
	if cs := r.bySlot[s]; cs != nil && cs.ch.Vi == vi {
		return cs
	}
	return nil
}

// reserve prepares for the n channels a static manager is about to make
// (core.Config.Reserve): their states — each with room for its pool's
// one registration — are one allocation, the slot table is sized once, and the
// port does the same below. Nothing is registered, posted or charged: the
// model cannot tell.
func (r *Rank) reserve(n int) {
	r.chanSlab = make([]chanState, n)
	handles := make([]via.MemHandle, n)
	for i := range r.chanSlab {
		r.chanSlab[i].memHandles = handles[i : i : i+1]
	}
	r.bySlot = append(make([]*chanState, 0, len(r.bySlot)+n), r.bySlot...) // made, not grown, as in Port.Reserve
	r.port.Reserve(n)
}

// newChanState takes the state ch had in its last life (else the next of
// reserve's slab, or grows) and is the one place its fields are set for a new
// life: all but the (empty) backing array of its registrations start from
// zero. The packets a teardown held while closing it has already taken off
// pendingClose, to post on the channel this makes.
func (r *Rank) newChanState(ch *core.Channel, credits int) *chanState {
	cs, _ := ch.UserData.(*chanState)
	if cs == nil {
		cs = simnet.Carve(&r.chanSlab)
	}
	if cs == nil {
		cs = growChans()
	}
	*cs = chanState{ch: ch, credits: int32(credits), memHandles: cs.memHandles[:0]}
	ch.UserData = cs
	return cs
}

// growPool registers and pre-posts n more eager receives on cs. The
// registration (all n buffers' worth: the model pins the whole pool) is the
// channel's; the receives are a count on the VI; a descriptor and the host
// memory of a buffer are the port's, lent while a message is in them.
func (r *Rank) growPool(cs *chanState, n int) {
	bufSize := r.cfg.eagerBufSize()
	h, err := r.port.Memory().Register(int64(bufSize * n))
	if err != nil {
		r.proc.Sim().Failf("mpi: rank %d cannot pin eager pool for peer %d: %v", r.rank, cs.ch.Rank, err)
		return
	}
	cs.memHandles = append(cs.memHandles, h)
	if err := cs.ch.Vi.PostRecvPool(n, bufSize); err != nil {
		r.proc.Sim().Failf("mpi: rank %d prepost to peer %d: %v", r.rank, cs.ch.Rank, err)
		return
	}
	cs.posted += int32(n)
	r.obsGauge("pinned_bytes", r.port.Memory().Pinned())
}

// onChannelUp drains the paper's pre-posted send FIFO in order (§3.4): what
// post parked on flowQ while the channel was not up is posted again, now to a
// channel that is.
func (r *Rank) onChannelUp(ch *core.Channel) {
	cs := ch.UserData.(*chanState)
	r.cameUp = true // what was read off it before now, flowPass passed over
	if r.bus != nil && cs.flowQ.head != nil {
		r.bus.Emit(obs.Event{T: r.nowNs(), Kind: obs.EvFifoDrain,
			Rank: int32(r.port.Addr().Ep), Peer: int32(ch.Rank), A: int64(cs.flowQ.len())})
	}
	r.repost(cs, cs.flowQ.take())
}

// channel returns the chanState for a world-rank peer, creating the
// connection on demand (policy permitting).
func (r *Rank) channel(peer int) (*chanState, error) {
	if peer == r.rank {
		return nil, fmt.Errorf("mpi: rank %d addressing itself over the network", r.rank)
	}
	ch, err := r.mgr.Channel(peer)
	if err != nil {
		return nil, err
	}
	ch.Touch(r.proc.Now())
	return ch.UserData.(*chanState), nil
}

// ---------------------------------------------------------------------------
// Graceful teardown (VI-cap eviction and remote disconnect)

// quiescent reports whether cs has drained enough to close: no parked, queued
// or held traffic, no rendezvous mid-flight, no unexpected RTS still
// referencing the channel, an empty VIA send queue, and credits to spare. An
// eviction needs two (BYE, keeping the reserved credit); the side accepting a
// peer's BYE needs one (the ACK: the channel is about to die, so the
// reservation rule no longer applies).
func (r *Rank) quiescent(cs *chanState, credits int32) bool {
	return cs.flowQ.head == nil && cs.pendingClose.head == nil &&
		cs.pendingRdv == 0 && cs.umqRefs == 0 &&
		cs.credits >= credits && cs.ch.Vi.SendQueueLen() == 0
}

// canEvict reports whether ch can be evicted gracefully (core.Config.CanEvict).
func (r *Rank) canEvict(ch *core.Channel) bool {
	cs := ch.UserData.(*chanState)
	return ch.Up && !cs.closing && r.quiescent(cs, 2)
}

// startEvict opens the teardown handshake for a cap eviction (ch is Evicting).
func (r *Rank) startEvict(ch *core.Channel) {
	cs := ch.UserData.(*chanState)
	cs.closing = true
	r.emit(cs, r.newPkt(hdr{kind: pktBye, srcRank: int32(r.rank)}, nil, nil))
}

// teardownChannel dismantles a drained channel: close the VI (sending DISC),
// release the eager pool's pinned memory, forget the channel in the slot table
// and the connection manager, and re-post any sends that arrived during the
// handshake on a fresh connection.
func (r *Rank) teardownChannel(cs *chanState) {
	peer, held := cs.ch.Rank, cs.pendingClose.take()
	r.bySlot[cs.ch.Vi.Slot()] = nil
	if cs.userSends {
		r.rememberDest(peer)
	}
	// The control packets the VI has not reaped yet (a BYE, its ACK) come
	// back now, uncharged — Close would drop them with their wire buffers.
	// A descriptor's frames carry their own bytes, and a stale completion
	// event is refused by generation, so reusing one at once is safe. (A
	// direct call rather than a range over it: the hot-path check follows
	// calls, not range statements.)
	cs.ch.Vi.PostedSends(func(d *via.Descriptor) bool {
		r.recycleSend(d)
		return true
	})
	cs.ch.Vi.Close()
	for _, h := range cs.memHandles {
		if err := r.port.Memory().Deregister(h); err != nil {
			r.proc.Sim().Failf("mpi: rank %d release eager pool for %d: %v", r.rank, peer, err)
		}
	}
	r.obsGauge("pinned_bytes", r.port.Memory().Pinned())
	r.mgr.ReleaseChannel(peer)
	if held != nil {
		// The reconnect takes cs back with the channel: held was its pendingClose.
		ncs, err := r.channel(peer)
		if err != nil {
			r.proc.Sim().Failf("mpi: rank %d reconnect to %d: %v", r.rank, peer, err)
			return
		}
		r.repost(ncs, held)
	}
}

// repost posts the chain of packets from held on, oldest first, on cs. It
// reads each packet's link before post relinks the packet into a queue.
func (r *Rank) repost(cs *chanState, held *pkt) {
	for p := held; p != nil; {
		next := p.next
		p.next = nil
		r.post(cs, p)
		p = next
	}
}

// rememberDest records that a channel now gone carried user sends to peer. A
// cold helper: the set grows once per peer, however often it reconnects.
func (r *Rank) rememberDest(peer int) {
	if r.pastDests == nil {
		r.pastDests = make(map[int]bool)
	}
	r.pastDests[peer] = true
}

// distinctDests counts the peers this rank addressed user sends to, over live
// channels and torn-down ones alike.
func (r *Rank) distinctDests() int {
	n := len(r.pastDests)
	for _, ch := range r.mgr.Channels() {
		if ch.UserData.(*chanState).userSends && !r.pastDests[ch.Rank] {
			n++
		}
	}
	return n
}

// handleDisconnect adopts a VI the remote side closed. During a BYE
// handshake (either role) the DISC is the expected final step; outside one,
// a disconnect with traffic in flight is a protocol violation.
func (r *Rank) handleDisconnect(cs *chanState) {
	if !cs.closing && (cs.pendingRdv > 0 || cs.flowQ.head != nil) {
		r.proc.Sim().Failf("mpi: rank %d: peer %d disconnected with traffic in flight", r.rank, cs.ch.Rank)
		return
	}
	r.teardownChannel(cs)
}

// ---------------------------------------------------------------------------
// Outbound path

// post sends a packet on a channel, parking it in the flow queue if the
// connection is not up yet (the paper's FIFO, drained by onChannelUp) or if
// credits are exhausted.
func (r *Rank) post(cs *chanState, p *pkt) {
	if cs.closing && p.hdr.kind < pktBye {
		// A BYE handshake is in flight: hold the packet and replay it on
		// the reconnected channel (or here, if the peer NACKs the BYE).
		cs.pendingClose.push(p)
		return
	}
	if !cs.ch.Up {
		if r.noSendFifo {
			// Ablation path: post to the unconnected VI and let VIA discard
			// it — the bug class the FIFO exists to prevent.
			_ = cs.ch.Vi.PostSend(r.wire(p))
			r.emitted(cs, p)
			return
		}
		cs.flowQ.push(p)
		if r.bus != nil {
			r.bus.Emit(obs.Event{T: r.nowNs(), Kind: obs.EvFifoPark,
				Rank: int32(r.port.Addr().Ep), Peer: int32(cs.ch.Rank), A: int64(cs.flowQ.len())})
		}
		return
	}
	if cs.flowQ.head != nil || cs.credits < r.creditNeed(p) {
		cs.flowQ.push(p)
		if r.bus != nil {
			r.bus.Emit(obs.Event{T: r.nowNs(), Kind: obs.EvCreditStall,
				Rank: int32(r.rank), Peer: int32(cs.ch.Rank), A: int64(cs.flowQ.len())})
		}
		return
	}
	r.emit(cs, p)
}

// creditNeed returns how many credits must remain for this packet to go out.
// Data and control need 2 (the last credit is reserved so a credit-return
// can always be sent, making flow control deadlock-free); credit returns
// need only 1.
func (r *Rank) creditNeed(p *pkt) int32 {
	if p.hdr.kind == pktCredit {
		return 1
	}
	return 2
}

// newPkt takes a packet off the free list (or grows it).
func (r *Rank) newPkt(h hdr, payload []byte, req *request) *pkt {
	p := r.freePkts
	if p == nil {
		p = growPkts()
	} else {
		r.freePkts, p.next = p.next, nil
	}
	p.hdr, p.payload, p.req = h, payload, req
	return p
}

// growPkts, growSends, growRdma, growUmsgs and growChans grow the free lists
// (cold paths: each settles at the number of packets queued, sends or RDMA
// writes unreaped, messages unexpected, or channels live, at once), and
// growUmsgBuf an entry's payload buffer (to the largest message it has held).
func growPkts() *pkt { return new(pkt) }

func (r *Rank) growSends() *via.Descriptor { return &via.Descriptor{UserPtr: r} }

func (r *Rank) growRdma() *via.Descriptor { return &via.Descriptor{UserPtr: &r.freeRdma} }

func growUmsgs() *umsg { return new(umsg) }

func growUmsgBuf(n int) []byte { return make([]byte, n) }

// growChans makes a state with room for its pool's first registration in the
// same allocation, as reserve's slab does, so growPool's first append makes
// nothing.
func growChans() *chanState {
	s := new(struct {
		cs chanState
		h  [1]via.MemHandle
	})
	s.cs.memHandles = s.h[:0:1]
	return &s.cs
}

// takeDesc takes the first descriptor off a free list linked through UserPtr
// and tags it again for recycleSend, or returns nil for an empty list.
func takeDesc(list **via.Descriptor, tag any) *via.Descriptor {
	d := *list
	if d != nil {
		*list, _ = d.UserPtr.(*via.Descriptor)
		d.UserPtr = tag
	}
	return d
}

// growRdvTable makes a table of rendezvous handshakes in flight, at a rank's
// first on either side (cold path: a boot, or a run of eager messages, never
// needs one).
func growRdvTable() map[int64]*request { return make(map[int64]*request) }

// wire encodes p into a recycled send descriptor. progressStep returns the
// descriptor to the free list when it reaps the completed send.
func (r *Rank) wire(p *pkt) *via.Descriptor {
	d := takeDesc(&r.freeSends, r)
	if d == nil {
		d = r.growSends()
	}
	d.Buf = encodeInto(d.Buf, p.hdr, p.payload)
	d.Len = len(d.Buf)
	return d
}

// emitted runs once p has been posted to the VI: the request riding on it
// completes and the packet is free.
func (r *Rank) emitted(cs *chanState, p *pkt) {
	if p.req != nil {
		if p.hdr.kind == pktFin {
			cs.pendingRdv-- // the rendezvous ends with its FIN
		}
		p.req.complete()
	}
	*p = pkt{next: r.freePkts}
	r.freePkts = p
}

// emit actually posts the packet to the VI.
func (r *Rank) emit(cs *chanState, p *pkt) {
	p.hdr.credits = cs.freed
	cs.freed = 0
	d := r.wire(p)
	r.port.ChargeHost(simnet.Duration(len(p.payload)) * r.cfg.cost.HostCopyPerByte)
	if err := cs.ch.Vi.PostSend(d); err != nil {
		r.proc.Sim().Failf("mpi: rank %d post to %d: %v", r.rank, cs.ch.Rank, err)
		return
	}
	if d.Status == via.StatusNotConnected {
		// Should be impossible: we only emit on Up channels. Seeing it means
		// the pre-posted send FIFO was bypassed — the exact bug the paper's
		// design rules out.
		r.proc.Sim().Failf("mpi: rank %d emitted on unconnected VI to %d (FIFO bypass)", r.rank, cs.ch.Rank)
		return
	}
	cs.credits--
	if r.bus != nil {
		var k obs.Kind
		switch p.hdr.kind {
		case pktEager:
			k = obs.EvEagerSend
		case pktRts:
			k = obs.EvRts
		case pktCts:
			k = obs.EvCts
		case pktFin:
			k = obs.EvFin
		default:
			k = obs.EvCreditGrant
		}
		if k == obs.EvCreditGrant {
			r.bus.Emit(obs.Event{T: r.nowNs(), Kind: k,
				Rank: int32(r.rank), Peer: int32(cs.ch.Rank), A: int64(p.hdr.credits)})
		} else {
			r.bus.Emit(obs.Event{T: r.nowNs(), Kind: k,
				Rank: int32(r.rank), Peer: int32(cs.ch.Rank), A: int64(p.hdr.size), B: int64(p.hdr.credits)})
		}
	}
	r.emitted(cs, p)
}

// ---------------------------------------------------------------------------
// Progress engine (MPID_DeviceCheck)

// progress makes one non-blocking pass over all communication state: it is
// MVICH's MPID_DeviceCheck. Connection requests are progressed here too —
// the paper's "a peer-to-peer connection request can be considered as
// another type of nonblocking communication request" (§3.3). The wrapper
// only charges the pass to the progress phase; the pass itself lives in
// progressStep so the per-poll work stays closure-free (both functions are
// zero-allocation hot paths, under a Policy.HotRoots entry).
func (r *Rank) progress() {
	if r.phases == nil {
		r.progressStep()
		return
	}
	start := r.proc.Now()
	r.progressStep()
	r.phases.Add(obs.PhaseProgress, int64(r.proc.Now().Sub(start)))
}

// pollAudit is a test hook: when set, every scan a poll may skip reports its
// decision before acting on it, so that a test can redo the scan the old way
// and compare.
var pollAudit func(r *Rank, scan pollScan, skip bool)

// pollScan names the walks over the live channels that a poll makes only when
// a counter says they can find something.
type pollScan int

const (
	scanTeardown  pollScan = iota // adoptDisconnects: VIs the peer closed
	scanHandshake                 // Manager.Poll: channels mid-handshake
	scanReap                      // reapSends: completed send descriptors
	scanFlow                      // flowPass: stalled packets and credit returns
)

// progressStep is the single device-check pass. What it costs the host is
// O(work) plus one charged poll per live VI: every walk over the live
// channels is guarded by a counter that the layer owning the event keeps, and
// each guard is exact — a skipped scan would have found nothing and charged
// nothing (reapSends charges what its scan would have).
func (r *Rank) progressStep() {
	// Adopt remote teardowns before connection progress: a peer's DISC must
	// release the channel here before its reconnect request (which the
	// per-pair FIFO guarantees arrives after the DISC) can be accepted.
	r.adoptDisconnects()

	if pollAudit != nil {
		pollAudit(r, scanHandshake, r.mgr.PendingConnections() == 0)
	}
	r.mgr.Poll()

	r.reapSends()

	// Drain arrivals.
	arrived := false
	for {
		vi, d := r.cq.Done()
		if d == nil {
			break
		}
		arrived = true
		cs := r.chanOf(vi)
		if cs == nil {
			// A torn-down channel can leave teardown control frames in the
			// CQ: with crossing BYEs the peer's BYE and DISC are both
			// delivered before this drain runs, and the DISC scan removes
			// the channel first. Quiescence guarantees nothing else can be
			// in flight — anything but a BYE-family frame here is a bug.
			if h, _, err := decode(d.Buf[:d.XferLen]); err != nil || h.kind < pktBye {
				r.proc.Sim().Failf("mpi: rank %d arrival on unknown VI", r.rank)
				return
			}
			// Completed before its VI closed, so Close left it to this
			// entry: now that the frame has been read, it is the port's again.
			r.port.ReturnLanding(d)
			continue
		}
		if d.Status != via.StatusSuccess {
			continue // descriptor failed with the connection; ignore
		}
		id := vi.ID()
		r.handlePacket(cs, d.Buf[:d.XferLen])
		// The packet has been read — an eager payload is copied out, into the
		// receive it matched or the unexpected queue — and nothing else keeps
		// the descriptor or its landing buffer: back to the port.
		r.port.ReturnLanding(d)
		// Re-arm the pool receive the message claimed, immediately — unless
		// the packet tore its own channel down (BYE_ACK, crossing BYE: the VI
		// may already be reissued to the reconnect that followed) or the
		// peer's DISC has arrived meanwhile.
		if vi.ID() == id && vi.State() == via.ViConnected && vi.PostRecvPool(1, r.cfg.eagerBufSize()) == nil {
			cs.freed++
		}
	}

	r.flowPass(arrived)
}

// adoptDisconnects tears down the channels whose VI the peer closed. The walk
// runs only when the port has counted a DISC since the last one: that arrival
// is the one way into ViDisconnected, and a walk tears down every such VI it
// finds, so while the count stands there is none. The count is read before
// the walk — a DISC that lands while handleDisconnect has the process parked
// in a reconnect is left to the next poll, as it always was.
func (r *Rank) adoptDisconnects() {
	n := r.port.Disconnects()
	skip := n == r.seenDisconnects
	if pollAudit != nil {
		pollAudit(r, scanTeardown, skip)
	}
	if skip {
		return
	}
	r.seenDisconnects = n
	// Collect first — teardownChannel splices the manager's table.
	down := r.down[:0]
	for _, ch := range r.mgr.Channels() {
		if ch.Vi.State() == via.ViDisconnected {
			down = append(down, ch.UserData.(*chanState))
		}
	}
	for _, cs := range down {
		r.handleDisconnect(cs)
	}
	r.down = down
}

// reapSends reaps send completions so VIA queues don't grow without bound.
// All channel scans run in peer-rank order (the manager's table is sorted —
// MVICH's device check walks its per-destination table by rank), so progress
// behaviour is identical whether channels were created eagerly or on demand.
// Polling a VI costs PollOverhead whether or not it has anything: that charge
// per live VI is the paper's polling-cost model, and it is made here either
// way. With no send unreaped anywhere on the port — only this process posts,
// so that stays true through the loop's debt flushes — the polls would all
// come back empty, and the same charges are made without visiting a VI.
func (r *Rank) reapSends() {
	idle := r.port.UnreapedSends() == 0
	if pollAudit != nil {
		pollAudit(r, scanReap, idle)
	}
	if idle {
		r.port.ChargeIdlePolls(len(r.mgr.Channels()))
		return
	}
	for _, ch := range r.mgr.Channels() {
		for d := ch.Vi.SendDone(); d != nil; d = ch.Vi.SendDone() {
			r.recycleSend(d)
		}
	}
}

// recycleSend puts a send descriptor taken off its VI back on the free list
// its UserPtr names, linked through UserPtr until takeDesc tags it again.
func (r *Rank) recycleSend(d *via.Descriptor) {
	switch d.UserPtr {
	case r:
		d.UserPtr, r.freeSends = r.freeSends, d
	case &r.freeRdma:
		d.Buf = nil // the caller's memory: the frames took their copies at the post
		d.UserPtr, r.freeRdma = r.freeRdma, d
	}
}

// flowPass drains the flow queues and returns credits. Closing channels are
// skipped: their flow queue is empty by the quiescence checks, and granting
// credits on a dying channel would only race its teardown.
//
// A pass leaves no open channel (up, not closing) able to emit: each has an
// empty flow queue or fewer than the two credits its head needs, and no
// credit return due (freed < posted/2, or no credit). Two things can change
// that, and a poll that saw neither skips the pass. One is an arrival in this
// poll's drain: credits grow nowhere but in handlePacket, freed nowhere but at
// the drain's re-arm (the pass's own pool growth is returned by the credit
// packet it emits next). The other is a channel coming up: its VI connects in
// event context and is promoted only at the top of a poll, so a drain that
// outlasts the handshake reads the peer's first packets off a channel the pass
// then passes over, and with nothing parked for that peer no later arrival
// need ever come — it is waiting for these credits. The other inputs move the
// other way or not at all: post queues a packet only behind a stuck head or
// for want of credits; growPool raises posted, and with it the bar for a
// return; and the BYE_NACK that reopens a closing channel — the other way
// arrivals read earlier can fall due later — is itself an arrival.
// TestPollShortcutsEqualScans redoes the pass's test at every skip, in worlds
// built around each of these.
func (r *Rank) flowPass(arrived bool) {
	skip := !arrived && !r.cameUp
	if pollAudit != nil {
		pollAudit(r, scanFlow, skip)
	}
	if skip {
		return
	}
	r.cameUp = false
	for _, ch := range r.mgr.Channels() {
		cs := ch.UserData.(*chanState)
		if !ch.Up || cs.closing {
			continue
		}
		for cs.flowQ.head != nil && cs.credits >= r.creditNeed(cs.flowQ.head) {
			r.emit(cs, cs.flowQ.pop())
		}
		if cs.freed >= cs.posted/2 && cs.credits >= 1 {
			// Dynamic flow control (paper §6 future work): traffic on this
			// channel keeps consuming the pool — double it, granting the
			// new buffers to the sender with this credit return.
			if posted := int(cs.posted); r.cfg.DynamicCredits && posted < r.cfg.CreditCount {
				grow := min(posted, r.cfg.CreditCount-posted)
				r.growPool(cs, grow)
				cs.freed += int32(grow)
			}
			// Emit directly, bypassing the flow queue: when our own data is
			// blocked waiting for the peer's credits, the explicit return
			// must still go out or both sides starve (the last credit is
			// reserved for exactly this packet).
			r.emit(cs, r.newPkt(hdr{kind: pktCredit, srcRank: int32(r.rank)}, nil, nil))
		}
	}
}

// waitProgress blocks until cond holds, interleaving progress with the
// configured completion wait mode (polling vs. spinwait).
func (r *Rank) waitProgress(cond func() bool) {
	for {
		r.progress()
		if cond() {
			return
		}
		if r.phases == nil {
			r.port.WaitActivity(r.cfg.WaitMode)
			continue
		}
		// Charge the blocked interval to the phase explaining why we block.
		ph := r.blockedPhase()
		start := r.proc.Now()
		r.port.WaitActivity(r.cfg.WaitMode)
		r.phases.Add(ph, int64(r.proc.Now().Sub(start)))
	}
}

// blockedPhase classifies why this rank is about to block: a pending
// handshake, exhausted credits, an in-flight rendezvous, or plain eager
// completion waiting (checked in that order of specificity).
func (r *Rank) blockedPhase() obs.Phase {
	if r.mgr.PendingConnections() > 0 {
		return obs.PhaseConnect
	}
	for _, ch := range r.mgr.Channels() {
		if ch.UserData.(*chanState).flowQ.head != nil {
			return obs.PhaseCreditStall
		}
	}
	if len(r.sendReqs) > 0 || len(r.recvReqs) > 0 {
		return obs.PhaseRendezvous
	}
	return obs.PhaseEager
}

// ---------------------------------------------------------------------------
// Inbound path

func (r *Rank) handlePacket(cs *chanState, wire []byte) {
	h, payload, err := decode(wire)
	if err != nil {
		r.proc.Sim().Failf("mpi: rank %d: %v", r.rank, err)
		return
	}
	cs.credits += h.credits
	cs.ch.Touch(r.proc.Now())
	switch h.kind {
	case pktEager:
		r.obsRecv(cs, h)
		if req := r.matchPRQ(h); req != nil {
			r.deliverEager(req, h, payload)
		} else {
			r.enqueueUnexpected(h, payload, nil)
		}
	case pktRts:
		r.obsRecv(cs, h)
		if req := r.matchPRQ(h); req != nil {
			r.acceptRendezvous(req, h, cs)
		} else {
			r.enqueueUnexpected(h, nil, cs)
		}
	case pktCts:
		req, ok := r.sendReqs[h.sreq]
		if !ok {
			r.proc.Sim().Failf("mpi: rank %d CTS for unknown sreq %d", r.rank, h.sreq)
			return
		}
		delete(r.sendReqs, h.sreq)
		r.rendezvousData(cs, req, h)
	case pktFin:
		req, ok := r.recvReqs[h.rreq]
		if !ok {
			r.proc.Sim().Failf("mpi: rank %d FIN for unknown rreq %d", r.rank, h.rreq)
			return
		}
		delete(r.recvReqs, h.rreq)
		cs.pendingRdv--
		if err := r.port.ReleaseRdmaTarget(req.rkey, via.MemHandle(req.rmem)); err != nil {
			r.proc.Sim().Failf("mpi: rank %d release rdma: %v", r.rank, err)
		}
		r.obsGauge("pinned_bytes", r.port.Memory().Pinned())
		r.port.ChargeHost(simnet.Duration(req.rdvSize) * r.cfg.cost.HostCopyPerByte / 8)
		req.status.Count = req.rdvSize
		req.complete()
	case pktCredit:
		// Credits were already added above; nothing else to do.
	case pktBye:
		if cs.closing {
			// Crossing BYEs: both sides chose each other as victim; each
			// treats the peer's BYE as the acknowledgement.
			r.teardownChannel(cs)
			return
		}
		if r.quiescent(cs, 1) {
			cs.closing = true
			r.emit(cs, r.newPkt(hdr{kind: pktByeAck, srcRank: int32(r.rank)}, nil, nil))
		} else {
			r.post(cs, r.newPkt(hdr{kind: pktByeNack, srcRank: int32(r.rank)}, nil, nil))
		}
	case pktByeAck:
		// The peer is drained; closing the VI sends the DISC that drives
		// its own teardown.
		r.teardownChannel(cs)
	case pktByeNack:
		// The peer had traffic in flight: abandon the eviction and release
		// the sends held during the handshake.
		cs.closing, cs.ch.Evicting = false, false
		r.repost(cs, cs.pendingClose.take())
	default:
		r.proc.Sim().Failf("mpi: rank %d unknown packet kind %s", r.rank, h.kind)
	}
}

// enqueueUnexpected files a message that beat its receive on an entry off the
// free list, and reports the queue's depth. An eager message's payload is
// copied out of wherever it sits (a landing buffer about to go back to the
// port, the sender's own buffer on a send to self) into the entry's own
// buffer; an RTS carries none and is held against its channel's teardown
// instead.
func (r *Rank) enqueueUnexpected(h hdr, payload []byte, cs *chanState) {
	u := simnet.Pop(&r.freeUmsgs)
	if u == nil {
		u = growUmsgs()
	}
	u.h, u.cs = h, cs
	buf := u.payload[:0]
	if cs == nil {
		if cap(buf) < len(payload) {
			buf = growUmsgBuf(len(payload))
		}
		buf = buf[:len(payload)]
		copy(buf, payload)
	} else {
		cs.umqRefs++
	}
	u.payload = buf
	r.umq = append(r.umq, u)
	r.obsUnexpected()
}

// obsUnexpected reports the unexpected-queue depth after an append.
func (r *Rank) obsUnexpected() {
	if r.bus == nil {
		return
	}
	r.bus.Emit(obs.Event{T: r.nowNs(), Kind: obs.EvUnexpected,
		Rank: int32(r.rank), Peer: -1, A: int64(len(r.umq))})
}

// matchPRQ finds and removes the first posted receive matching the header.
func (r *Rank) matchPRQ(h hdr) *request {
	for i, req := range r.prq {
		if matches(req, h) {
			r.prq = append(r.prq[:i], r.prq[i+1:]...)
			return req
		}
	}
	return nil
}

// matches implements MPICH (context, source, tag) matching.
func matches(req *request, h hdr) bool {
	if req.ctx != h.ctx {
		return false
	}
	if req.src != AnySource && int32(req.src) != h.srcRank {
		return false
	}
	if req.tag != AnyTag && int32(req.tag) != h.tag {
		return false
	}
	return true
}

// deliverEager copies an eager payload into the matched receive.
func (r *Rank) deliverEager(req *request, h hdr, payload []byte) {
	n := int(h.size)
	if n > len(req.buf) {
		req.failf("mpi: truncation: %d-byte message into %d-byte buffer (src %d tag %d)",
			n, len(req.buf), h.srcRank, h.tag)
		return
	}
	copy(req.buf, payload[:n])
	r.port.ChargeHost(simnet.Duration(n) * r.cfg.cost.HostCopyPerByte)
	req.status = Status{Source: int(h.srcRank), Tag: int(h.tag), Count: n}
	req.complete()
}

// acceptRendezvous registers the receive buffer for RDMA and sends CTS.
func (r *Rank) acceptRendezvous(req *request, h hdr, cs *chanState) {
	n := int(h.size)
	if n > len(req.buf) {
		req.failf("mpi: truncation: %d-byte rendezvous into %d-byte buffer", n, len(req.buf))
		return
	}
	key, mem, err := r.port.RegisterRdmaTarget(req.buf[:n])
	if err != nil {
		req.failf("mpi: cannot register rendezvous buffer: %v", err)
		return
	}
	req.rkey, req.rmem, req.rdvSize = key, int64(mem), n
	r.obsGauge("pinned_bytes", r.port.Memory().Pinned())
	req.status = Status{Source: int(h.srcRank), Tag: int(h.tag), Count: n}
	r.nextReq++
	id := r.nextReq
	if r.recvReqs == nil {
		r.recvReqs = growRdvTable()
	}
	r.recvReqs[id] = req
	cs.pendingRdv++
	r.post(cs, r.newPkt(hdr{
		kind: pktCts, srcRank: int32(r.rank), ctx: h.ctx,
		sreq: h.sreq, rreq: id, rkey: key, size: h.size,
	}, nil, nil))
}

// rendezvousData RDMA-writes the payload and sends FIN; the send request
// completes when FIN is posted.
func (r *Rank) rendezvousData(cs *chanState, req *request, h hdr) {
	if err := r.rdmaWrite(cs, req.data, h.rkey); err != nil {
		req.failf("mpi: rdma write: %v", err)
		return
	}
	if r.bus != nil {
		r.bus.Emit(obs.Event{T: r.nowNs(), Kind: obs.EvRdma,
			Rank: int32(r.rank), Peer: int32(cs.ch.Rank), A: int64(len(req.data))})
	}
	r.post(cs, r.newPkt(hdr{kind: pktFin, srcRank: int32(r.rank), ctx: h.ctx, rreq: h.rreq}, nil, req))
}

// rdmaWrite posts an RDMA write of data to the start of the peer's target key
// on a descriptor off the rank's RDMA free list. The post places data in the
// peer's target and the frames carry headers only, so data is free again when
// the post returns; the descriptor stays on the VI's send queue until
// reapSends takes it back, or comes straight back if the post is refused.
func (r *Rank) rdmaWrite(cs *chanState, data []byte, key uint64) error {
	d := takeDesc(&r.freeRdma, &r.freeRdma)
	if d == nil {
		d = r.growRdma()
	}
	d.Buf, d.Len, d.RdmaKey = data, len(data), key
	if err := cs.ch.Vi.PostRdmaWrite(d); err != nil {
		r.recycleSend(d)
		return err
	}
	return nil
}
