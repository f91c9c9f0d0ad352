package via

import (
	"fmt"
	"slices"

	"viampi/internal/fabric"
	"viampi/internal/obs"
	"viampi/internal/simnet"
)

// WaitMode selects how blocking completion waits behave.
type WaitMode int

const (
	// WaitPoll spins forever: the waiter observes completions immediately
	// and never pays a wakeup penalty ("polling" in the paper).
	WaitPoll WaitMode = iota
	// WaitSpin polls for the device's spin budget, then falls back to a
	// blocking (interrupt-based) wait that pays CostModel.WaitWakeup when
	// satisfied ("spinwait", MVICH's default on cLAN with spincount=100).
	// On devices where wait itself is a poll loop (BVIA), WaitSpin behaves
	// exactly like WaitPoll.
	WaitSpin
)

func (m WaitMode) String() string {
	if m == WaitSpin {
		return "spinwait"
	}
	return "polling"
}

type connKey struct {
	remoteEp int
	disc     uint64
}

// PortStats aggregates per-process resource usage for the scalability tables.
type PortStats struct {
	VisCreated   int
	VisConnected int
	MsgsSent     int64
	MsgsRecv     int64
	BytesSent    int64
	BytesRecv    int64
	RdmaBytes    int64
	WaitWakeups  int64 // blocking waits that overran the spin budget
	LandingPeak  int   // most landing buffers out on loan at once
}

// Port is a process's handle on the VIA provider (cf. VipOpenNic). All
// blocking calls must be made by the owning process.
type Port struct {
	net   *Network
	ep    int
	node  int
	owner *simnet.Proc
	mem   MemoryRegistry

	vis     []*VI // by slot (the low half of a VI id); a closed VI's slot is nil
	liveVIs int   // VIs created and not yet closed, held under MaxVIsPerPort
	visUsed int   // VIs, open or closed, that carried a data message

	freeVIs  []*VI          // closed VIs, each keeping its slot and its emptied work queues
	freeReqs []*PeerRequest // consumed incoming requests

	// What Reserve made for the VIs its caller is about to create, one
	// allocation a kind, carved by cursor at the take sites before they grow.
	viSlab  []VI
	reqSlab []PeerRequest

	// Landing descriptors, each with its buffer, lent to the messages that
	// claim a receive of a counted pool (lendLanding, ReturnLanding): the free
	// ones, most recently returned last, and the count out on loan. A buffer is
	// never zeroed: a reader only ever sees Buf[:XferLen].
	landing    []*Descriptor
	landingOut int

	outgoing        map[connKey]*VI // VIs with an outstanding REQ; made by the first (growOutgoing) or by Reserve
	pendingIncoming []*PeerRequest  // unmatched incoming REQs

	// What lets the owner's poll skip a walk over its VIs (see UnreapedSends
	// and Disconnects): each is kept at the sites that own the event.
	unreaped    int // sends posted and not yet reaped, over all VIs
	disconnects int // VIs a peer's DISC moved to ViDisconnected, ever

	activity     bool
	parkedInWait bool
	debt         simnet.Duration
	closed       bool

	rdmaTargets map[uint64][]byte // made by the first RegisterRdmaTarget
	nextRdmaKey uint64

	// Out-of-band messages, each in the frame that carried it: the queue,
	// linked through the frames' next, and the one RecvOob handed out last,
	// whose data its caller may still be reading.
	oobHead, oobTail, oobRead *wireMsg

	stats PortStats
}

// Addr returns the port's network address for use in connection requests.
func (p *Port) Addr() Addr { return Addr{Ep: p.ep} }

// Owner returns the owning process.
func (p *Port) Owner() *simnet.Proc { return p.owner }

// Node returns the physical node hosting this port.
func (p *Port) Node() int { return p.node }

// Memory returns the port's registered-memory accounting.
func (p *Port) Memory() *MemoryRegistry { return &p.mem }

// Stats returns a snapshot of the port's resource counters.
func (p *Port) Stats() PortStats { return p.stats }

// Network returns the provider this port belongs to.
func (p *Port) Network() *Network { return p.net }

// Obs returns the simulation's observability bus (nil when disabled).
func (p *Port) Obs() *obs.Bus { return p.net.sim.Obs() }

// NowNs is the current virtual time as an event timestamp.
func (p *Port) NowNs() int64 { return int64(p.net.sim.Now()) }

// ChargeHost accumulates host CPU cost against the owning process. The debt
// is flushed (converted into simulated compute time) once it crosses a small
// threshold or before the process blocks, keeping event counts manageable.
func (p *Port) ChargeHost(d simnet.Duration) {
	p.debt += d
	if p.debt >= 2*simnet.Microsecond {
		p.FlushDebt()
	}
}

// FlushDebt charges all accumulated host cost as compute time now.
func (p *Port) FlushDebt() {
	if p.debt > 0 {
		d := p.debt
		p.debt = 0
		p.owner.Compute(d)
	}
}

// notifyActivity records that something observable happened on the port and
// wakes the owner if it is blocked in WaitActivity.
func (p *Port) notifyActivity() {
	p.activity = true
	if p.parkedInWait {
		p.owner.Wake()
	}
}

// WaitActivity blocks the owner until activity occurs on the port (a
// completion, a connection event, or an incoming request). Under WaitSpin on
// an interrupt-wait device, overrunning the spin budget costs a wakeup
// penalty, reproducing the paper's spinwait behaviour.
func (p *Port) WaitActivity(mode WaitMode) {
	p.waitActivity(mode, -1)
}

// WaitActivityTimeout is WaitActivity with a timeout; it reports false if the
// timeout elapsed with no activity.
func (p *Port) WaitActivityTimeout(mode WaitMode, d simnet.Duration) bool {
	return p.waitActivity(mode, d)
}

func (p *Port) waitActivity(mode WaitMode, timeout simnet.Duration) bool {
	p.FlushDebt()
	if p.activity {
		p.activity = false
		return true
	}
	start := p.owner.Now()
	p.parkedInWait = true
	var woken bool
	if timeout < 0 {
		p.owner.Park()
		woken = true
	} else {
		woken = p.owner.ParkTimeout(timeout)
	}
	p.parkedInWait = false
	p.activity = false
	if woken && mode == WaitSpin && !p.net.cost.WaitIsSpin {
		if p.owner.Now().Sub(start) > p.net.cost.SpinBudget() {
			p.stats.WaitWakeups++
			p.owner.Compute(p.net.cost.WaitWakeup)
		}
	}
	return woken
}

// CreateVi creates a new VI endpoint on this port.
func (p *Port) CreateVi() (*VI, error) { return p.CreateViCQ(nil) }

// CreateViCQ creates a VI whose receive completions are also delivered to cq.
func (p *Port) CreateViCQ(cq *CQ) (*VI, error) {
	if p.closed {
		return nil, ErrClosed
	}
	if p.liveVIs >= p.net.cost.MaxVIsPerPort {
		return nil, fmt.Errorf("%w: %d", ErrTooManyVIs, p.net.cost.MaxVIsPerPort)
	}
	p.ChargeHost(p.net.cost.CreateViCost)
	// A closed VI is reissued in its slot for its next life, with the work
	// queues it emptied at Close; only a port with every slot live grows.
	vi := simnet.Pop(&p.freeVIs)
	if vi != nil {
		vi.id += 1 << lifeShift
	} else {
		vi = p.growVIs()
	}
	*vi = VI{port: p, id: vi.id, recvCQ: cq, viQueues: vi.viQueues, remoteEp: -1}
	p.vis[vi.Slot()] = vi
	p.liveVIs++
	p.net.nodes[p.node].openVIs++
	p.stats.VisCreated++
	p.Obs().Emit(obs.Event{T: p.NowNs(), Kind: obs.EvViCreate,
		Rank: int32(p.ep), Peer: -1, A: int64(p.stats.VisCreated)})
	return vi, nil
}

// VIRoom returns how many more VIs the port may hold under MaxVIsPerPort.
func (p *Port) VIRoom() int { return p.net.cost.MaxVIsPerPort - p.liveVIs }

// Reserve prepares the port for n VIs its owner is about to create: the
// endpoints and the requests of the peers that connect first are one
// allocation each, and the tables the handshakes fill are sized once. It
// creates nothing the model knows of — no VI, no registration, no host charge
// — and a caller that knows no count (an on-demand manager) simply never calls
// it. Room beyond VIRoom would never be used.
func (p *Port) Reserve(n int) {
	p.viSlab = make([]VI, n)
	p.reqSlab = make([]PeerRequest, n)
	p.vis = slices.Grow(p.vis, n)
	p.pendingIncoming = slices.Grow(p.pendingIncoming, n)
	p.freeReqs = slices.Grow(p.freeReqs, n)
	if len(p.outgoing) == 0 {
		p.outgoing = growOutgoing(n)
	}
	p.mem.reserve(n)
}

// growOutgoing makes the table of outstanding requests, for n of them: at
// Reserve, or at the first request of a port that reserved nothing (cold path).
func growOutgoing(n int) map[connKey]*VI { return make(map[connKey]*VI, n) }

// growVIs adds a slot to the port, with a VI for its life 0: the next of
// Reserve's slab, else a new one (cold path: the table settles at the most VIs
// live at once).
func (p *Port) growVIs() *VI {
	vi := simnet.Carve(&p.viSlab)
	if vi == nil {
		vi = new(VI)
	}
	vi.id = len(p.vis)
	p.vis = append(p.vis, nil)
	return vi
}

// lendLanding lends the message about to land on vi, which has just claimed a
// receive of vi's pool, a pending descriptor with a buffer of the pool's
// capacity: the one returned last if its buffer is large enough (it is the
// likeliest to be in cache), else a new one.
func (p *Port) lendLanding(vi *VI) *Descriptor {
	n := int(vi.poolCap)
	var d *Descriptor
	if k := len(p.landing) - 1; k >= 0 && cap(p.landing[k].Buf) >= n {
		d, p.landing = p.landing[k], p.landing[:k]
	} else {
		d = growLanding(n)
	}
	d.Buf, d.Status, d.XferLen, d.vi, d.lent = d.Buf[:n], StatusPending, 0, vi, true
	p.landingOut++
	p.stats.LandingPeak = max(p.stats.LandingPeak, p.landingOut)
	return d
}

// ReturnLanding takes back d and its buffer, if they are the port's: the owner
// calls it once it has read Buf[:XferLen] of a completed pool receive (and
// Close does for one that failed with a message part-way in). Nothing may keep
// d, or a slice of the buffer, beyond this call. A descriptor that was posted
// with PostRecv stays its owner's.
func (p *Port) ReturnLanding(d *Descriptor) {
	if !d.lent {
		return
	}
	d.lent = false
	p.landing = append(p.landing, d)
	p.landingOut--
}

// Landing returns the port's free landing descriptors (the live list, for
// tests that overwrite whatever is free) and the number out on loan.
func (p *Port) Landing() (free []*Descriptor, out int) { return p.landing, p.landingOut }

// RegisterRdmaTarget registers buf as an RDMA write target and returns the
// key a remote peer can address it with (carried in rendezvous CTS
// messages). The buffer counts against the pinned-memory limit.
//
// A write's bytes land in buf when the write is posted, ahead of its frames,
// so buf's bytes are undefined to its owner until the completion that
// announces them (a rendezvous FIN). Writes to overlapping ranges in
// one such epoch are erroneous in MPI; here the last one posted wins.
func (p *Port) RegisterRdmaTarget(buf []byte) (uint64, MemHandle, error) {
	h, err := p.mem.Register(int64(len(buf)))
	if err != nil {
		return 0, 0, err
	}
	p.nextRdmaKey++
	key := p.nextRdmaKey
	if p.rdmaTargets == nil {
		p.rdmaTargets = growRdmaTargets()
	}
	p.rdmaTargets[key] = buf
	return key, h, nil
}

// growRdmaTargets makes the table of RDMA targets at a port's first (cold
// path: a run without a rendezvous never registers one).
func growRdmaTargets() map[uint64][]byte { return make(map[uint64][]byte) }

// ReleaseRdmaTarget removes an RDMA target and unpins its buffer.
func (p *Port) ReleaseRdmaTarget(key uint64, h MemHandle) error {
	if _, ok := p.rdmaTargets[key]; !ok {
		return ErrUnknownRdmaKey
	}
	delete(p.rdmaTargets, key)
	return p.mem.Deregister(h)
}

// ConnectPeerRequest issues a non-blocking peer-to-peer connection request
// from vi to the VI at remote identified by disc (cf. VipConnectPeerRequest).
// The VI transitions to ViConnecting and later to ViConnected when the
// matching request from the other side is seen; completion is observed by
// polling vi.State or via WaitActivity.
func (p *Port) ConnectPeerRequest(vi *VI, remote Addr, disc uint64) error {
	if vi.port != p {
		return fmt.Errorf("via: VI belongs to a different port")
	}
	if vi.state != ViIdle {
		return vi.badState("ConnectPeerRequest")
	}
	p.owner.Compute(p.net.cost.ConnectLocalCost) // OS involvement
	if vi.state != ViIdle {
		// A late ACK for the attempt this one replaces connected the VI
		// during the compute: the peer is already up, and a new request
		// would find nothing to answer it.
		return nil
	}
	vi.state = ViConnecting
	vi.remoteEp = int32(remote.Ep)
	vi.disc = disc
	p.Obs().Emit(obs.Event{T: p.NowNs(), Kind: obs.EvConnRequest,
		Rank: int32(p.ep), Peer: int32(remote.Ep), A: int64(disc)})

	// If the matching request already arrived, complete the rendezvous now.
	for i, req := range p.pendingIncoming {
		if req.From.Ep == remote.Ep && req.Disc == disc {
			p.pendingIncoming = slices.Delete(p.pendingIncoming, i, i+1)
			p.establish(vi, req.RemoteVi)
			p.freeReqs = append(p.freeReqs, req)
			return nil
		}
	}
	if p.outgoing == nil {
		p.outgoing = growOutgoing(0)
	}
	p.outgoing[connKey{remote.Ep, disc}] = vi
	p.net.sendFrame(p, remote.Ep, wireMsg{
		kind: kindConnReq, srcEp: p.ep, srcVi: vi.id, disc: disc,
	}, nil, 64)
	return nil
}

// CancelConnect abandons an outstanding peer-to-peer connection request:
// the VI returns to ViIdle with its held frames dropped, and the outgoing
// entry is removed so a crossing REQ for the abandoned attempt is queued as a
// new request. A late ACK for it still connects the VI: the peer took the
// request and is up. The connection managers' timeout/retry path uses this
// before re-issuing a request.
func (p *Port) CancelConnect(vi *VI) error {
	if vi.port != p {
		return fmt.Errorf("via: VI belongs to a different port")
	}
	if vi.state != ViConnecting {
		return vi.badState("CancelConnect")
	}
	delete(p.outgoing, connKey{int(vi.remoteEp), vi.disc})
	vi.resetHandshake()
	return nil
}

// NotifyAfter schedules an activity notification after d, waking the owner
// if it is blocked in WaitActivity by then. Retry deadlines use this so a
// parked process re-examines its handshakes when a timeout expires; the
// sticky activity flag makes a spurious notification harmless.
func (p *Port) NotifyAfter(d simnet.Duration) {
	p.net.sim.AtAction(p.net.sim.Now().Add(d), (*portNotify)(p), 0)
}

// portNotify is a port as the scheduler event NotifyAfter books.
type portNotify Port

// Fire delivers the notification.
func (n *portNotify) Fire(uint64) { (*Port)(n).notifyActivity() }

// ConnectPeerWait blocks until vi leaves ViConnecting, with a timeout
// (negative = infinite). It returns nil once connected.
func (p *Port) ConnectPeerWait(vi *VI, mode WaitMode, timeout simnet.Duration) error {
	deadline := simnet.Time(-1)
	if timeout >= 0 {
		deadline = p.owner.Now().Add(timeout)
	}
	for vi.state == ViConnecting {
		if deadline >= 0 {
			left := deadline.Sub(p.owner.Now())
			if left <= 0 || !p.WaitActivityTimeout(mode, left) {
				return ErrTimeout
			}
		} else {
			p.WaitActivity(mode)
		}
	}
	switch vi.state {
	case ViConnected:
		return nil
	case ViIdle:
		return ErrRejected
	default:
		return fmt.Errorf("%w: %v", ErrBadState, vi.state)
	}
}

// PendingPeerRequests returns incoming, not-yet-matched connection requests.
// The on-demand progress engine polls this to notice peers that want to
// talk (the slice is live; use ConnectPeerRequest or Reject to consume).
func (p *Port) PendingPeerRequests() []*PeerRequest {
	return p.pendingIncoming
}

// Reject refuses an incoming request, consuming it from the pending list if
// it is still there.
func (p *Port) Reject(req *PeerRequest) {
	consumed := false
	for i, r := range p.pendingIncoming {
		if r == req {
			p.pendingIncoming = slices.Delete(p.pendingIncoming, i, i+1)
			consumed = true
			break
		}
	}
	p.Obs().Emit(obs.Event{T: p.NowNs(), Kind: obs.EvConnReject,
		Rank: int32(p.ep), Peer: int32(req.From.Ep), A: int64(req.Disc)})
	p.net.sendFrame(p, req.From.Ep, wireMsg{
		kind: kindConnNack, srcEp: p.ep, disc: req.Disc, dstVi: req.RemoteVi,
	}, nil, 64)
	if consumed {
		p.freeReqs = append(p.freeReqs, req)
	}
}

// newPeerRequest takes a request consumed from the pending list (by a
// matching ConnectPeerRequest, or Reject) off the free list, else the next of
// Reserve's slab, or grows.
func (p *Port) newPeerRequest() *PeerRequest {
	if req := simnet.Pop(&p.freeReqs); req != nil {
		return req
	}
	if req := simnet.Carve(&p.reqSlab); req != nil {
		return req
	}
	return growPeerRequests()
}

// growPeerRequests grows the free list (cold path: it settles at the number
// of requests pending at once).
func growPeerRequests() *PeerRequest { return new(PeerRequest) }

// establish books vi's move to ViConnected, and the ACK that lets the remote
// side complete, for when the provider has processed the handshake. The event
// carries the id it was booked for: vi may be closed and reissued by then.
func (p *Port) establish(vi *VI, remoteVi int) {
	vi.remoteVi = remoteVi
	p.net.sim.AtAction(p.net.sim.Now().Add(p.net.cost.ConnectProcCost), (*viEstablish)(vi), uint64(vi.id))
}

// viEstablish is a connecting VI as the scheduler event establish books.
type viEstablish VI

// Fire runs after the provider's processing delay.
func (e *viEstablish) Fire(id uint64) { (*VI)(e).establishAfter(int(id)) }

// establishAfter connects the VI to the remote one establish recorded once the
// processing delay is over, unless the attempt was abandoned meanwhile or the
// VI is in a later life than id.
func (vi *VI) establishAfter(id int) {
	p := vi.port
	if vi.id != id || vi.state != ViConnecting {
		return
	}
	vi.state = ViConnected
	p.stats.VisConnected++
	p.Obs().Emit(obs.Event{T: p.NowNs(), Kind: obs.EvConnUp,
		Rank: int32(p.ep), Peer: vi.remoteEp, A: int64(vi.disc)})
	p.net.sendFrame(p, int(vi.remoteEp), wireMsg{
		kind: kindConnAck, srcEp: p.ep, srcVi: vi.id, disc: vi.disc, dstVi: vi.remoteVi,
	}, nil, 64)
	vi.deliverHeld()
	p.notifyActivity()
}

// handleFrame is the fabric delivery callback: it books NIC receive service,
// after which the frame's second hop dispatches it.
func (p *Port) handleFrame(f fabric.Frame) {
	m := f.Payload.(*wireMsg)
	if m.kind == kindOob {
		// Management-network traffic does not touch the VIA NIC.
		p.deliver(m)
		return
	}
	m.port = p
	p.net.sim.AtAction(p.net.serviceRx(p.node), m, hopRx)
}

// deliver dispatches a frame that has arrived at the port and, unless a VI's
// preConnQ or the out-of-band queue took it over, frees it.
func (p *Port) deliver(m *wireMsg) {
	p.dispatch(m)
	if !m.held {
		p.net.release(m)
	}
}

func (p *Port) dispatch(m *wireMsg) {
	if p.closed {
		return
	}
	switch m.kind {
	case kindConnReq:
		if f := p.net.faults; f != nil && f.refuseReq(m.srcEp, p.ep, p.net.sim.Now()) {
			// Injected refusal: the endpoint is (transiently) not accepting
			// connections; NACK so the initiator's retry machinery engages.
			p.net.ConnReqsRefused++
			p.net.sendFrame(p, m.srcEp, wireMsg{
				kind: kindConnNack, srcEp: p.ep, disc: m.disc, dstVi: m.srcVi,
			}, nil, 64)
			return
		}
		key := connKey{m.srcEp, m.disc}
		if vi, ok := p.outgoing[key]; ok && vi.state == ViConnecting {
			// Crossing peer requests: both sides establish.
			delete(p.outgoing, key)
			p.establish(vi, m.srcVi)
			return
		}
		req := p.newPeerRequest()
		*req = PeerRequest{From: Addr{Ep: m.srcEp}, Disc: m.disc, RemoteVi: m.srcVi}
		p.pendingIncoming = append(p.pendingIncoming, req)
		p.notifyActivity()
	case kindConnAck:
		// The peer took this VI's request and is up, so the VI is too: the
		// live request, or one a timeout or a NACK abandoned while the peer
		// was already answering it. Only a VI idle after an attempt to this
		// pair takes such a late ACK; one that never issued a request matches
		// nothing (CreateVi sets its endpoint to -1).
		key := connKey{m.srcEp, m.disc}
		vi, ok := p.outgoing[key]
		if ok && vi.state == ViConnecting {
			delete(p.outgoing, key)
		} else if vi = p.lookupVi(m.dstVi); vi == nil || vi.state != ViIdle ||
			int(vi.remoteEp) != m.srcEp || vi.disc != m.disc {
			return
		}
		vi.remoteVi = m.srcVi
		vi.state = ViConnected
		p.stats.VisConnected++
		p.Obs().Emit(obs.Event{T: p.NowNs(), Kind: obs.EvConnUp,
			Rank: int32(p.ep), Peer: vi.remoteEp, A: int64(vi.disc)})
		vi.deliverHeld()
		p.notifyActivity()
	case kindConnNack:
		key := connKey{m.srcEp, m.disc}
		if vi, ok := p.outgoing[key]; ok && vi.state == ViConnecting {
			delete(p.outgoing, key)
			// remoteVi and any held pre-connection frames must go, or a
			// reused VI could match a descriptor from the rejected attempt.
			vi.resetHandshake()
			p.notifyActivity()
		}
	case kindDisc:
		if vi := p.lookupVi(m.dstVi); vi != nil && vi.state == ViConnected {
			vi.state = ViDisconnected
			p.disconnects++
			vi.failPending(StatusDisconnected)
			p.Obs().Emit(obs.Event{T: p.NowNs(), Kind: obs.EvDisconnect,
				Rank: int32(p.ep), Peer: int32(m.srcEp)})
			p.notifyActivity()
		}
	case kindData:
		if vi := p.lookupVi(m.dstVi); vi != nil {
			vi.handleData(m)
		}
	case kindRdma:
		// PostRdmaWrite placed the bytes; the frame carries the header and
		// charges the wire for its fragment.
		if _, ok := p.rdmaTargets[m.rdmaKey]; ok {
			p.stats.RdmaBytes += int64(m.size - p.net.cost.FrameHeaderBytes)
		} else {
			p.net.sim.Failf("via: RDMA write to unknown key %d at port %d", m.rdmaKey, p.ep)
		}
	case kindOob:
		m.held = true
		if p.oobTail == nil {
			p.oobHead = m
		} else {
			p.oobTail.next = m
		}
		p.oobTail = m
		p.notifyActivity()
	}
}

// SendOob delivers data to dst over the out-of-band management network
// (Ethernet/TCP in the real system) — used for job bootstrap, never for MPI
// traffic. It bypasses NIC service and link serialization. The bytes are
// copied into a recycled frame, as a NIC post's are: the caller may reuse
// data as soon as SendOob returns.
func (p *Port) SendOob(dst Addr, data []byte) {
	m := p.net.takeFrame(wireMsg{kind: kindOob, srcEp: p.ep}, data)
	p.net.cluster.SendMgmt(fabric.Frame{Src: p.ep, Dst: dst.Ep, Size: len(data), Payload: m})
}

// RecvOob polls for an out-of-band message; ok is false when none is queued.
// data is the frame that carried the message: it is valid until the next
// RecvOob, which returns that frame to the free list.
func (p *Port) RecvOob() (from Addr, data []byte, ok bool) {
	if m := p.oobRead; m != nil {
		p.oobRead = nil
		p.net.release(m)
	}
	m := p.oobHead
	if m == nil {
		return Addr{}, nil, false
	}
	p.oobHead = m.next
	if p.oobHead == nil {
		p.oobTail = nil
	}
	p.oobRead = m
	return Addr{Ep: m.srcEp}, m.data, true
}

// lookupVi returns the live VI whose id is exactly id: a frame addressed to a
// slot's earlier life, like one to a closed VI, finds nothing.
func (p *Port) lookupVi(id int) *VI {
	if id < 0 || id&slotMask >= len(p.vis) {
		return nil
	}
	if vi := p.vis[id&slotMask]; vi != nil && vi.id == id {
		return vi
	}
	return nil
}

// Close tears down all VIs on the port and marks it closed.
func (p *Port) Close() {
	if p.closed {
		return
	}
	for _, vi := range p.vis {
		if vi != nil && vi.state != ViClosed {
			vi.Close()
		}
	}
	p.closed = true
}

// UnreapedSends returns the send descriptors posted on the port's VIs and not
// yet reaped by SendDone. Only the owner posts, so while it reads 0 every
// VI's SendDone would find an empty queue.
func (p *Port) UnreapedSends() int { return p.unreaped }

// Disconnects counts the VIs a peer's DISC has moved to ViDisconnected since
// the port opened. That arrival is the only way into the state, so an owner
// that has dealt with every such VI has nothing new to find until the count
// moves.
func (p *Port) Disconnects() int { return p.disconnects }

// ChargeIdlePolls charges what SendDone charges on n VIs with nothing posted:
// PollOverhead each, through ChargeHost one poll at a time, so the debt is
// flushed at the instants the per-VI polls flush it.
func (p *Port) ChargeIdlePolls(n int) {
	for ; n > 0; n-- {
		p.ChargeHost(p.net.cost.PollOverhead)
	}
}

// VisUsed counts VIs that carried at least one data message in either
// direction — the numerator of the paper's resource-utilization metric.
func (p *Port) VisUsed() int { return p.visUsed }
