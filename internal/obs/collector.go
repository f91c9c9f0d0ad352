package obs

// Collector folds bus events into a Registry: per-kind counters, sampled
// gauges, and the derived histograms (message latency from send→recv pairs,
// connect time from request→up pairs, egress serialization wait).
type Collector struct {
	reg *Registry

	// In-flight matching state. Keys are composed rank pairs; maps are
	// lookup/insert/delete only — never ranged — so no order can leak.
	msgSent   map[msgKey]int64 // (src,dst,seq) -> send timestamp
	connStart map[uint64]int64 // (rank,peer) -> request timestamp
	latency   *Histogram
	connect   *Histogram
	egress    *Histogram
	reconn    *Histogram
}

type msgKey struct {
	src, dst int32
	seq      int64
}

// Default histogram bucket bounds in nanoseconds: 1 µs … 100 ms by decades
// with a 1-2-5 ladder, wide enough for both the cLAN's ~25 µs latencies and
// static-cs's multi-ms connects.
func timeBuckets() []int64 {
	return []int64{
		1_000, 2_000, 5_000,
		10_000, 20_000, 50_000,
		100_000, 200_000, 500_000,
		1_000_000, 2_000_000, 5_000_000,
		10_000_000, 20_000_000, 50_000_000, 100_000_000,
	}
}

// NewCollector returns a collector writing into reg.
func NewCollector(reg *Registry) *Collector {
	c := &Collector{
		reg:       reg,
		msgSent:   map[msgKey]int64{},
		connStart: map[uint64]int64{},
	}
	c.latency = reg.Hist("msg.latency_ns", timeBuckets())
	c.connect = reg.Hist("conn.setup_ns", timeBuckets())
	c.egress = reg.Hist("frame.egress_wait_ns", timeBuckets())
	c.reconn = reg.Hist("conn.reconnect_ns", timeBuckets())
	return c
}

// Attach subscribes the collector to b for the life of the bus. A nil bus
// is ignored.
func (c *Collector) Attach(b *Bus) {
	if b != nil {
		b.Subscribe(c.Consume)
	}
}

func pairKey(rank, peer int32) uint64 {
	return uint64(uint32(rank))<<32 | uint64(uint32(peer))
}

// eventCounters names each kind's events.* counter, built once so that
// Consume makes no string per event; index 0 is the unknown kind's.
var eventCounters = func() (names [EvRunEnd + 1]string) {
	for k := range names {
		names[k] = "events." + Kind(k).String()
	}
	return names
}()

// Consume folds one event into the registry. Exported for callers that own
// their event stream rather than a Bus (tcpvia's EventLog).
func (c *Collector) Consume(e Event) {
	name := eventCounters[0]
	if int(e.Kind) < len(eventCounters) {
		name = eventCounters[e.Kind]
	}
	c.reg.Inc(name, 1)
	switch e.Kind {
	case EvMsgSend:
		if e.Peer != e.Rank { // self-sends never cross the wire
			c.msgSent[msgKey{e.Rank, e.Peer, e.C}] = e.T
		}
		c.reg.Inc("msg.bytes_sent", e.A)
	case EvMsgRecv:
		k := msgKey{e.Peer, e.Rank, e.C}
		if t0, ok := c.msgSent[k]; ok {
			delete(c.msgSent, k)
			c.latency.Observe(e.T - t0)
		}
	case EvConnRequest, EvConnAccept:
		c.connStart[pairKey(e.Rank, e.Peer)] = e.T
	case EvConnUp:
		k := pairKey(e.Rank, e.Peer)
		if t0, ok := c.connStart[k]; ok {
			delete(c.connStart, k)
			c.connect.Observe(e.T - t0)
		}
	case EvFrameEnqueue:
		c.egress.Observe(e.B)
		c.reg.Inc("frame.bytes", e.A)
	case EvFifoPark:
		c.reg.SetGauge("fifo.depth", e.A)
	case EvFifoDrain:
		c.reg.Inc("fifo.drained_total", e.A)
	case EvCreditGrant:
		c.reg.Inc("credit.granted", e.A)
	case EvEagerSend, EvRts, EvCts, EvFin:
		c.reg.Inc("credit.granted", e.B) // piggybacked returns
	case EvCreditStall:
		c.reg.SetGauge("flowq.depth", e.A)
	case EvUnexpected:
		c.reg.SetGauge("umq.depth", e.A)
	case EvDisconnect:
		c.reg.Inc("conn.disconnects", 1)
	case EvEvict:
		c.reg.Inc("conn.evictions", 1)
	case EvConnRetry:
		c.reg.Inc("conn.retries", 1)
	case EvReconnect:
		c.reconn.Observe(e.A)
	case EvGauge:
		c.reg.SetGauge(e.Name, e.A)
	case EvProcStart, EvProcEnd, EvViCreate, EvConnReject, EvRdma,
		EvFrameDeliver, EvCallBegin, EvCallEnd, EvPhase, EvRunEnd:
		// Counted by the generic events.* counter above; no derived metric.
	}
}
