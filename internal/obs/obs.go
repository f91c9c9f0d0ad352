// Package obs is the virtual-time flight recorder: a typed event bus every
// simulation layer emits into, and every report about a run as a fold over
// that one event stream — the communication matrix, the per-call profile,
// the metrics registry, the phase table, the Chrome trace-event / Perfetto
// JSON — which make the paper's quantities (distinct destinations, VIs
// created vs. used, where init time goes, credit stalls, FIFO parking)
// visible for any run. Reports is the one place the folds are flagged,
// attached and rendered, for a live bus and a replayed bundle alike.
//
// The package is a shared leaf: any layer may import it,
// it imports only the standard library, and it contains no clocks of its own.
// Every event carries the simnet virtual timestamp its emitter observed, so
// the whole layer is a pure function of the run's Config. When observability
// is off the bus handle is nil and Emit is a nil-receiver no-op costing one
// branch and zero allocations — the same fast path as the mpi profiler.
package obs

// Kind identifies an event type on the bus.
type Kind uint8

// Event kinds. The A/B/C payload fields are kind-specific; unused fields
// are zero. Rank is the emitting endpoint (world rank for mpi events, port
// endpoint for via/fabric events — identical under block placement), Peer
// the other party or -1.
const (
	// EvProcStart / EvProcEnd bracket a simulated process's lifetime.
	// Name = process name.
	EvProcStart Kind = iota + 1
	EvProcEnd

	// Connection lifecycle (via, core).
	EvViCreate    // A = VIs created on this port so far
	EvConnRequest // A = pair discriminator
	EvConnAccept  // A = pair discriminator
	EvConnReject  // A = pair discriminator
	EvConnUp      // A = pair discriminator
	EvFifoPark    // pre-posted send parked; A = FIFO depth after parking
	EvFifoDrain   // FIFO drained on channel-up; A = entries drained

	// Protocol events (mpi).
	EvEagerSend   // A = payload bytes, B = piggybacked credits
	EvRts         // A = message bytes, B = piggybacked credits
	EvCts         // A = message bytes, B = piggybacked credits
	EvRdma        // A = bytes RDMA-written
	EvFin         // B = piggybacked credits
	EvCreditGrant // explicit credit return; A = credits granted
	EvCreditStall // send parked awaiting credits; A = flow-queue depth
	EvUnexpected  // unexpected-queue append; A = queue depth after

	// Fabric events.
	EvFrameEnqueue // A = wire bytes, B = egress serialization wait (ns)
	EvFrameDeliver // A = wire bytes

	// User messages (one per point-to-point send; what the Matrix fold
	// consumes). A = bytes, B = tag, C = per-(src,dst) sequence number.
	EvMsgSend
	EvMsgRecv // A = bytes, B = tag, C = per-(src,dst) sequence number

	// MPI call spans (outermost entry point only). Name = call name.
	EvCallBegin
	EvCallEnd

	// EvGauge samples a named quantity at event time. Name = gauge name,
	// A = value (e.g. pinned bytes, posted descriptors).
	EvGauge

	// Teardown / reconnect lifecycle (via, core). Appended after EvGauge so
	// existing exported kind values stay wire-stable.
	EvDisconnect // remote side closed the connection; Peer = closing endpoint
	EvEvict      // channel evicted under the VI cap; A = live channels before
	EvConnRetry  // connection request re-issued; A = attempt number
	EvReconnect  // channel re-established after teardown; A = latency (ns)

	// Run epilogue (mpi). Appended so existing kind values stay wire-stable.
	// EvPhase reports one rank's charged time in one phase after finalize:
	// Name = phase name, A = phase index, B = charged nanoseconds. EvRunEnd
	// closes the stream once per run: T = the run's elapsed virtual time,
	// A = world size. Together they let a capture bundle re-render the phase
	// table offline, without re-running the simulation.
	EvPhase
	EvRunEnd
)

// String returns the kind's wire-stable name (used in exports).
func (k Kind) String() string {
	switch k {
	case EvProcStart:
		return "proc.start"
	case EvProcEnd:
		return "proc.end"
	case EvViCreate:
		return "vi.create"
	case EvConnRequest:
		return "conn.request"
	case EvConnAccept:
		return "conn.accept"
	case EvConnReject:
		return "conn.reject"
	case EvConnUp:
		return "conn.up"
	case EvFifoPark:
		return "fifo.park"
	case EvFifoDrain:
		return "fifo.drain"
	case EvEagerSend:
		return "proto.eager"
	case EvRts:
		return "proto.rts"
	case EvCts:
		return "proto.cts"
	case EvRdma:
		return "proto.rdma"
	case EvFin:
		return "proto.fin"
	case EvCreditGrant:
		return "credit.grant"
	case EvCreditStall:
		return "credit.stall"
	case EvUnexpected:
		return "umq.append"
	case EvFrameEnqueue:
		return "frame.enqueue"
	case EvFrameDeliver:
		return "frame.deliver"
	case EvMsgSend:
		return "msg.send"
	case EvMsgRecv:
		return "msg.recv"
	case EvCallBegin:
		return "call.begin"
	case EvCallEnd:
		return "call.end"
	case EvGauge:
		return "gauge"
	case EvDisconnect:
		return "conn.disconnect"
	case EvEvict:
		return "conn.evict"
	case EvConnRetry:
		return "conn.retry"
	case EvReconnect:
		return "conn.reconnect"
	case EvPhase:
		return "phase"
	case EvRunEnd:
		return "run.end"
	default:
		return "unknown"
	}
}

// Event is one record on the bus. The struct is passed by value and holds
// no pointers (Name aliases static strings), so emitting does not allocate.
type Event struct {
	T    int64 // virtual time in nanoseconds
	Kind Kind
	Rank int32 // emitting rank / endpoint
	Peer int32 // peer rank / endpoint, -1 when not applicable
	A    int64 // kind-specific (bytes, depth, discriminator, value)
	B    int64 // kind-specific (tag, credits, wait ns)
	C    int64 // kind-specific (sequence number)
	Name string
}

// Bus fans events out to subscribers. It is single-threaded like everything
// else in the simulation: subscribers run synchronously in emission order.
// A nil *Bus is the disabled state — Emit on it is a no-op.
type Bus struct {
	subs []func(Event)
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Sub identifies one subscription on a Bus, for Unsubscribe. Subscription
// slots are never reused, so a stale Sub at worst re-clears a nil slot.
type Sub int

// Subscribe registers fn to receive every subsequent event and returns the
// handle that detaches it again. A subscriber that must stop before the bus
// is dropped keeps the handle; a subscription without an Unsubscribe path
// pins its closure (and whatever sink it feeds) for the life of the bus.
func (b *Bus) Subscribe(fn func(Event)) Sub {
	b.subs = append(b.subs, fn)
	return Sub(len(b.subs) - 1)
}

// Unsubscribe detaches the subscription s. Safe on a nil bus and idempotent:
// the slot is nilled, not compacted, so other handles stay valid.
func (b *Bus) Unsubscribe(s Sub) {
	if b == nil || int(s) < 0 || int(s) >= len(b.subs) {
		return
	}
	b.subs[int(s)] = nil
}

// Emit delivers e to all subscribers. Safe (and free) on a nil bus.
func (b *Bus) Emit(e Event) {
	if b == nil {
		return
	}
	for _, fn := range b.subs {
		if fn == nil {
			continue
		}
		fn(e)
	}
}
