// Package fabric models the physical cluster: nodes with shared NIC ports
// connected through a full-crossbar switch, plus a slow out-of-band
// management network used for job bootstrap (the role Ethernet/rsh played for
// MVICH's process startup).
//
// The model charges three costs to every frame: transmit serialization on the
// source node's NIC port, wire + switch propagation, and receive
// serialization on the destination node's port. Processes on the same node
// share their node's port in both directions, which reproduces the NIC
// contention that multi-process-per-node MPI runs see. Same-node traffic
// takes a loopback path with its own (lower) latency and no switch hop.
//
// fabric knows nothing about VIA: it moves opaque frames between endpoints in
// virtual time. The via package layers endpoint/doorbell/descriptor
// semantics on top.
package fabric

import (
	"fmt"

	"viampi/internal/obs"
	"viampi/internal/simnet"
)

// Config describes the simulated cluster hardware.
type Config struct {
	Nodes           int             // number of physical nodes
	ProcsPerNode    int             // process slots per node (block placement)
	BandwidthBps    float64         // NIC port bandwidth, bytes per second, each direction
	WireLatency     simnet.Duration // NIC->switch->NIC propagation (one way)
	SwitchLatency   simnet.Duration // added per switch traversal
	SameNodeLatency simnet.Duration // loopback latency for intra-node frames
	MgmtLatency     simnet.Duration // out-of-band (Ethernet/TCP) one-way latency
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("fabric: Nodes must be positive, got %d", c.Nodes)
	case c.ProcsPerNode <= 0:
		return fmt.Errorf("fabric: ProcsPerNode must be positive, got %d", c.ProcsPerNode)
	case c.BandwidthBps <= 0:
		return fmt.Errorf("fabric: BandwidthBps must be positive, got %g", c.BandwidthBps)
	case c.WireLatency < 0 || c.SwitchLatency < 0 || c.SameNodeLatency < 0 || c.MgmtLatency < 0:
		return fmt.Errorf("fabric: latencies must be non-negative")
	}
	return nil
}

// MaxProcs returns the total process slots in the cluster.
func (c Config) MaxProcs() int { return c.Nodes * c.ProcsPerNode }

// Frame is an opaque unit of transfer between endpoints. Size is the wire
// size in bytes used for serialization; Payload is whatever the upper layer
// wants delivered (no marshalling happens inside the simulator).
type Frame struct {
	Src     int // source endpoint id
	Dst     int // destination endpoint id
	Size    int
	Payload interface{}
}

// Handler consumes frames delivered to an endpoint.
type Handler func(f Frame)

// endpoint is a process's attachment point to its node's NIC.
type endpoint struct {
	id      int
	node    int
	handler Handler
}

// port tracks the serialization state of one node's NIC direction.
type port struct {
	freeAt simnet.Time
}

// reserve books size bytes onto the port starting no earlier than now and
// returns the completion time.
func (p *port) reserve(now simnet.Time, size int, bps float64) simnet.Time {
	start := now
	if p.freeAt > start {
		start = p.freeAt
	}
	d := simnet.Duration(float64(size) / bps * 1e9)
	p.freeAt = start.Add(d)
	return p.freeAt
}

// Cluster is the simulated hardware instance.
type Cluster struct {
	sim *simnet.Sim
	cfg Config
	eps []endpoint
	tx  []port // per node
	rx  []port // per node

	free        *flight // recycled in-flight records
	flightsMade int     // records growFlights has made, which sizes its next slab

	// FramesDelivered counts frames handed to endpoint handlers.
	FramesDelivered uint64
	// MgmtFrames counts out-of-band deliveries.
	MgmtFrames uint64
}

// New creates a cluster on sim. It panics on invalid configuration: cluster
// shape is programmer input, not runtime data.
func New(sim *simnet.Sim, cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cluster{
		sim: sim,
		cfg: cfg,
		tx:  make([]port, cfg.Nodes),
		rx:  make([]port, cfg.Nodes),
	}
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Sim returns the simulation driving the cluster.
func (c *Cluster) Sim() *simnet.Sim { return c.sim }

// Attach creates a new endpoint on the next free process slot (block
// placement: slot i lands on node i/ProcsPerNode) and returns its id.
// handler is invoked in scheduler context each time a frame arrives.
func (c *Cluster) Attach(handler Handler) (int, error) {
	id := len(c.eps)
	if id >= c.cfg.MaxProcs() {
		return -1, fmt.Errorf("fabric: cluster full (%d slots)", c.cfg.MaxProcs())
	}
	c.eps = append(c.eps, endpoint{id: id, node: id / c.cfg.ProcsPerNode, handler: handler})
	return id, nil
}

// NodeOf returns the node hosting endpoint id.
func (c *Cluster) NodeOf(id int) int { return c.eps[id].node }

// flight is one frame in transit: the scheduler event for each of its hops.
// A frame fires twice — flightEgress books the source port and the wire,
// flightDeliver hands it to the destination's handler — and the record then
// returns to the cluster's free list (see growFlights).
type flight struct {
	c    *Cluster
	f    Frame
	next *flight // free list link
}

// The hops of a frame, passed as the event argument.
const (
	flightEgress  uint64 = iota // queue on the source node's transmit port
	flightDeliver               // receive serialization done: call the handler
	flightMgmt                  // out-of-band delivery: no port, no wire model
)

// takeFlight pops a record off the free list (or grows it) and loads f.
func (c *Cluster) takeFlight(f Frame) *flight {
	if f.Src < 0 || f.Src >= len(c.eps) || f.Dst < 0 || f.Dst >= len(c.eps) {
		c.badEndpoints(f)
	}
	fl := c.free
	if fl == nil {
		fl = c.growFlights()
	}
	c.free, fl.next = fl.next, nil
	fl.f = f
	return fl
}

func (c *Cluster) badEndpoints(f Frame) {
	panic(fmt.Sprintf("fabric: send with bad endpoints src=%d dst=%d (have %d)", f.Src, f.Dst, len(c.eps)))
}

// slabMax caps a slab of flight records: 32 of them are an exact size class,
// and what a cluster makes past its in-flight peak stays under 32.
const slabMax = 32

// growFlights grows the free list by a slab, the first of one and each next as
// large as all the earlier ones together, up to slabMax (cold path: the list
// settles fewer than slabMax records past the in-flight high-water mark, at up
// to slabMax records an allocation).
func (c *Cluster) growFlights() *flight {
	slab := make([]flight, min(max(c.flightsMade, 1), slabMax))
	c.flightsMade += len(slab)
	for i := range slab {
		slab[i].c, slab[i].next, c.free = c, c.free, &slab[i]
	}
	return c.free
}

// Fire runs one hop of the frame (scheduler context).
func (fl *flight) Fire(hop uint64) {
	c, f := fl.c, fl.f
	now := c.sim.Now()
	if hop == flightEgress {
		src, dst := c.eps[f.Src].node, c.eps[f.Dst].node
		// Egress serialization wait: how long the frame queued behind
		// earlier traffic before its node's transmit port was free.
		wait := c.tx[src].freeAt.Sub(now)
		if wait < 0 {
			wait = 0
		}
		c.sim.Obs().Emit(obs.Event{T: int64(now), Kind: obs.EvFrameEnqueue,
			Rank: int32(f.Src), Peer: int32(f.Dst), A: int64(f.Size), B: int64(wait)})
		txDone := c.tx[src].reserve(now, f.Size, c.cfg.BandwidthBps)
		deliverAt := txDone.Add(c.cfg.SameNodeLatency)
		if src != dst {
			// Receive-side serialization (ingress DMA shares the port).
			arriveAt := txDone.Add(c.cfg.WireLatency + c.cfg.SwitchLatency)
			deliverAt = c.rx[dst].reserve(arriveAt, f.Size, c.cfg.BandwidthBps)
		}
		c.sim.AtAction(deliverAt, fl, flightDeliver)
		return
	}
	// The record is free before the handler runs: the handler may send.
	fl.f = Frame{}
	fl.next, c.free = c.free, fl
	if hop == flightMgmt {
		c.MgmtFrames++
	} else {
		c.FramesDelivered++
		c.sim.Obs().Emit(obs.Event{T: int64(now), Kind: obs.EvFrameDeliver,
			Rank: int32(f.Dst), Peer: int32(f.Src), A: int64(f.Size)})
	}
	c.eps[f.Dst].handler(f)
}

// Send injects a frame into the network at the current virtual time after
// extra (the sender-side processing delay computed by the device model, e.g.
// NIC doorbell service). Delivery order between a fixed (src,dst) pair is
// FIFO as long as extra is non-decreasing per pair — the via layer guarantees
// this by serializing through each NIC's service loop.
func (c *Cluster) Send(f Frame, extra simnet.Duration) {
	c.sim.AtAction(c.sim.Now().Add(extra), c.takeFlight(f), flightEgress)
}

// SendMgmt delivers a frame over the out-of-band management network: fixed
// latency, no NIC serialization. Used for job bootstrap (rank/address
// exchange), mirroring MVICH's TCP-based process manager.
func (c *Cluster) SendMgmt(f Frame) {
	c.sim.AtAction(c.sim.Now().Add(c.cfg.MgmtLatency), c.takeFlight(f), flightMgmt)
}
