package via

import (
	"fmt"

	"viampi/internal/fabric"
	"viampi/internal/simnet"
)

// Network is a VIA provider instance spanning the whole simulated cluster.
// Each MPI process opens one Port on it.
type Network struct {
	sim     *simnet.Sim
	cluster *fabric.Cluster
	cost    CostModel
	nodes   []*nodeState
	ports   []*Port

	faults *FaultPlan

	free       *wireMsg // recycled frames
	framesMade int      // frames growFrames has made, which sizes its next slab

	// DroppedNoDescriptor counts messages that arrived on a VI with no
	// posted receive descriptor (a flow-control violation in the upper
	// layer; the VI enters the error state).
	DroppedNoDescriptor int
	// DiscardedSends counts sends posted to unconnected VIs.
	DiscardedSends int
	// ConnReqsDropped / ConnReqsDelayed / ConnReqsRefused count injected
	// connection-establishment faults (zero unless a FaultPlan is set).
	ConnReqsDropped int
	ConnReqsDelayed int
	ConnReqsRefused int
}

// SetFaults installs a deterministic connection-fault plan (nil disables).
func (n *Network) SetFaults(f *FaultPlan) { n.faults = f }

// nodeState is the per-physical-node NIC service state shared by all ports
// (processes) on that node.
type nodeState struct {
	txFree  simnet.Time
	rxFree  simnet.Time
	openVIs int // open VI endpoints across all ports on this node
}

// NewNetwork creates a VIA provider over a fresh fabric cluster.
func NewNetwork(sim *simnet.Sim, fcfg fabric.Config, cost CostModel) *Network {
	n := &Network{
		sim:     sim,
		cluster: fabric.New(sim, fcfg),
		cost:    cost,
		nodes:   make([]*nodeState, fcfg.Nodes),
	}
	for i := range n.nodes {
		n.nodes[i] = &nodeState{}
	}
	return n
}

// Sim returns the driving simulation.
func (n *Network) Sim() *simnet.Sim { return n.sim }

// Cluster returns the underlying fabric.
func (n *Network) Cluster() *fabric.Cluster { return n.cluster }

// Ports returns all opened ports in open order.
func (n *Network) Ports() []*Port { return n.ports }

// Open attaches a new port (one per process) owned by proc, on the next free
// process slot. The owner is the only process that may invoke blocking
// operations on the port.
func (n *Network) Open(owner *simnet.Proc) (*Port, error) {
	p := &Port{net: n, owner: owner, mem: MemoryRegistry{limit: n.cost.MaxPinnedBytes}}
	ep, err := n.cluster.Attach(p.handleFrame)
	if err != nil {
		return nil, err
	}
	p.ep = ep
	p.node = n.cluster.NodeOf(ep)
	n.ports = append(n.ports, p)
	return p, nil
}

// serviceTx books NIC transmit service for one frame on node nd and returns
// the completion time. Per-VI doorbell scan cost models BVIA firmware.
func (n *Network) serviceTx(nd int) simnet.Time {
	ns := n.nodes[nd]
	start := n.sim.Now()
	if ns.txFree > start {
		start = ns.txFree
	}
	d := n.cost.NicTxBase + simnet.Duration(ns.openVIs)*n.cost.NicTxPerVI
	ns.txFree = start.Add(d)
	return ns.txFree
}

// serviceRx books NIC receive service for one frame on node nd starting at
// the frame's arrival (now) and returns the delivery time.
func (n *Network) serviceRx(nd int) simnet.Time {
	ns := n.nodes[nd]
	start := n.sim.Now()
	if ns.rxFree > start {
		start = ns.rxFree
	}
	d := n.cost.NicRxBase + simnet.Duration(ns.openVIs)*n.cost.NicRxPerVI
	ns.rxFree = start.Add(d)
	return ns.rxFree
}

// The NIC-service hops of a frame, passed as the event argument.
const (
	hopTx uint64 = iota // transmit service done: inject into the fabric
	hopRx               // receive service done: dispatch at the destination port
)

// sendFrame pushes a frame with header hdr and a copy of data from port p
// into the fabric after NIC transmit service, returning the time the NIC
// finished accepting it (which is when the associated descriptor completes
// locally). wireLen is the payload size the wire charges for, which an RDMA
// write's frame carries without its data.
func (n *Network) sendFrame(p *Port, dstEp int, hdr wireMsg, data []byte, wireLen int) simnet.Time {
	txDone := n.serviceTx(p.node)
	var extra simnet.Duration
	if hdr.kind == kindConnReq && n.faults != nil {
		if n.faults.dropReq(p.ep, dstEp, n.sim.Now()) {
			// The NIC accepted the frame (service time is booked and the
			// descriptor completes); the wire lost it.
			n.ConnReqsDropped++
			return txDone
		}
		if d := n.faults.delayReq(p.ep, dstEp, n.sim.Now()); d > 0 {
			// Per-pair FIFO survives the extra delay: nothing else can be
			// in flight on this pair before the connection establishes.
			n.ConnReqsDelayed++
			extra = d
		}
	}
	m := n.takeFrame(hdr, data)
	m.port, m.dstEp, m.size, m.extra = p, dstEp, wireLen+n.cost.FrameHeaderBytes, extra
	n.sim.AtAction(txDone, m, hopTx)
	return txDone
}

// takeFrame takes a frame off the free list and loads it with the header hdr
// and a copy of data, in the frame's own buffer.
func (n *Network) takeFrame(hdr wireMsg, data []byte) *wireMsg {
	m := n.free
	if m == nil {
		m = n.growFrames()
	}
	n.free = m.next
	buf := m.buf
	if cap(buf) < len(data) {
		buf = growFrameBuf(len(data))
	}
	*m = hdr
	m.buf, m.data = buf, buf[:len(data)]
	copy(m.data, data)
	return m
}

// slabMax caps a slab of frames: 32 of them fit the 5,376-byte size class, and
// what a network makes past its in-flight peak stays under 32 frames. At 160 B
// a frame that leaves 256 B of the class unused, and 33 would fill it, but the
// cap only shapes the slabs past a network's first 64 frames: at 33 no NPB
// kernel at class S and no BenchmarkMeshBoot world allocates an object or a
// byte less (-cpu 1; at -cpu 2 the counts wobble by a few on their own).
const slabMax = 32

// growFrames, growFrameBuf and growLanding grow the frame free list, a frame's
// buffer and a port's stock of landing descriptors (cold paths). Frames come
// in slabs, the first of one and each next as large as all the earlier ones
// together, up to slabMax: the list settles fewer than slabMax frames past the
// most in flight at once, NIC and out-of-band alike, at up to slabMax frames
// an allocation. A buffer settles at the largest fragment its frame has
// carried — exactly that, no size classes — and the landing stock at the
// number of messages landed and not yet read at once. The frame buffers' stock
// is therefore the peak of eager and out-of-band fragments in flight at once,
// each at its own size: a send's fragment is copied at the post because the
// sender may reuse its buffer as soon as the post returns. An RDMA write's
// fragments add nothing to it, however many are in flight (IS's Alltoallv
// posts all its writes together): its bytes are placed in the target at the
// post, and its frames carry headers only.
func (n *Network) growFrames() *wireMsg {
	slab := make([]wireMsg, min(max(n.framesMade, 1), slabMax))
	n.framesMade += len(slab)
	for i := range slab {
		slab[i].next, n.free = n.free, &slab[i]
	}
	return n.free
}

func growFrameBuf(size int) []byte { return make([]byte, size) }

func growLanding(size int) *Descriptor { return &Descriptor{Buf: make([]byte, size)} }

// release returns a dispatched (or dropped) frame to the free list.
func (n *Network) release(m *wireMsg) {
	*m = wireMsg{buf: m.buf, next: n.free}
	n.free = m
}

// Fire runs one NIC-service hop of the frame (scheduler context): after
// transmit service it enters the fabric; after receive service the
// destination port delivers it.
func (m *wireMsg) Fire(hop uint64) {
	p := m.port
	if hop == hopTx {
		p.net.cluster.Send(fabric.Frame{Src: p.ep, Dst: m.dstEp, Size: m.size, Payload: m}, m.extra)
		return
	}
	p.deliver(m)
}

// OpenVIsOnNode reports open VI endpoints on node nd (for tests/harness).
func (n *Network) OpenVIsOnNode(nd int) int { return n.nodes[nd].openVIs }

// TotalOpenVIs reports open VI endpoints across the cluster.
func (n *Network) TotalOpenVIs() int {
	t := 0
	for _, ns := range n.nodes {
		t += ns.openVIs
	}
	return t
}

func (n *Network) String() string {
	return fmt.Sprintf("via.Network(%s, %d ports, %d open VIs)",
		n.cost.Name, len(n.ports), n.TotalOpenVIs())
}
