package tcpvia

import (
	"fmt"
	"io"
	"sync"
	"time"

	"viampi/internal/obs"
)

// Manager applies the paper's connection-management policies to a group of
// tcpvia nodes identified by rank: "static" builds the full mesh up front;
// "ondemand" creates a VI and dials lazily on first use, parking sends in a
// per-channel FIFO until the connection is up (paper §3.4). Like the MPI it
// stands for, it makes progress only inside its own calls (MPICH's weak
// progress rule): every entry point first polls the node, adopts pending
// requests (§3.3) and brings up each channel whose connection completed,
// draining its FIFO in order. It belongs to its node's owner.
type Manager struct {
	node     *Node
	rank     int
	peers    []string   // rank -> listen address
	channels []*Channel // by rank; nil until first used
	policy   string
	timeout  time.Duration
	closed   bool

	// log is the optional wall-clock flight recorder and the manager's one
	// emission path: it folds every event into the metrics the snapshot
	// loop writes from its own goroutine, which is why EventLog locks.
	log *EventLog

	snapStop chan struct{}
	snapWG   sync.WaitGroup
}

// logEvent records a protocol event in the flight recorder (nil = no log).
func (m *Manager) logEvent(kind obs.Kind, peer int, a, b int64) {
	m.log.Emit(kind, int32(m.rank), int32(peer), a, b, 0, "")
}

// Channel is the per-peer state: the VI plus the pre-posted send FIFO.
type Channel struct {
	Rank int
	Vi   *VI

	up   bool
	fifo [][]byte
}

// failed reports why the channel's connect request failed, or why its VI
// went down before the channel came up; nil while it may still come up (a
// peer's request can bring up a channel whose own dial failed).
func (ch *Channel) failed() error {
	if ch.up {
		return nil
	}
	switch ch.Vi.state {
	case Idle, Errored:
		if ch.Vi.err != nil {
			return fmt.Errorf("tcpvia: connect to rank %d: %w", ch.Rank, ch.Vi.err)
		}
	case Closed:
		return ErrClosed
	case Connecting, Connected:
	}
	return nil
}

// Every VI a manager creates pre-posts recvPool receive buffers of
// recvBufSize bytes each.
const (
	recvPool    = 32
	recvBufSize = 64 << 10
)

// ManagerConfig configures NewManager.
type ManagerConfig struct {
	Node    *Node
	Rank    int
	Peers   []string // rank -> address (Peers[Rank] must equal Node.Addr())
	Policy  string   // "static" or "ondemand"
	Timeout time.Duration

	// Log, when set, receives every connection, FIFO, and message event
	// with wall-clock stamps — the live twin of the simulator's capture
	// bundle — and folds them into the same metrics mpirun-sim -metrics
	// prints ("events.conn.up", "fifo.drained_total", ...). The EventLog
	// serializes itself.
	Log *EventLog

	// SnapshotEvery, with SnapshotTo and Log all set, writes the log's
	// metrics as JSON to SnapshotTo at that interval (and once more at
	// Close) — cheap liveness observability for long-running processes.
	SnapshotEvery time.Duration
	SnapshotTo    io.Writer
}

// NewManager wires a node into a ranked group under the chosen policy.
// Static managers return only after the full mesh is connected.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.Timeout == 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.Rank < 0 || cfg.Rank >= len(cfg.Peers) {
		return nil, fmt.Errorf("tcpvia: rank %d outside peer table", cfg.Rank)
	}
	m := &Manager{
		node:     cfg.Node,
		rank:     cfg.Rank,
		peers:    cfg.Peers,
		channels: make([]*Channel, len(cfg.Peers)),
		policy:   cfg.Policy,
		timeout:  cfg.Timeout,
		log:      cfg.Log,
	}
	switch cfg.Policy {
	case "static":
		if err := m.connectAll(); err != nil {
			return nil, err
		}
	case "ondemand":
	default:
		return nil, fmt.Errorf("tcpvia: unknown policy %q", cfg.Policy)
	}
	if cfg.SnapshotEvery > 0 && cfg.SnapshotTo != nil && cfg.Log != nil {
		m.snapStop = make(chan struct{})
		m.snapWG.Add(1)
		go m.snapshotLoop(cfg.SnapshotEvery, cfg.SnapshotTo)
	}
	return m, nil
}

// snapshotLoop periodically dumps the log's metrics as one JSON document
// per tick — a heartbeat a human (or a scraper) can tail.
func (m *Manager) snapshotLoop(every time.Duration, out io.Writer) {
	defer m.snapWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-m.snapStop:
			// One final snapshot so the tail of the file reflects the full
			// run. A heartbeat has no caller to report a failed write to.
			_ = m.log.WriteMetricsJSON(out)
			return
		case <-t.C:
			_ = m.log.WriteMetricsJSON(out)
		}
	}
}

// pairDisc is the canonical discriminator for a rank pair.
func pairDisc(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b) | 1<<63
}

// connectAll builds the full mesh, the static policy: each rank dials the
// ranks above it, adopts the requests of those below, and waits until every
// channel is up.
func (m *Manager) connectAll() error {
	for r := range m.peers {
		if r == m.rank {
			continue
		}
		ch, err := m.channel(r)
		if err == nil && r > m.rank {
			err = m.dial(ch)
		}
		if err != nil {
			return err
		}
	}
	var err error
	if !m.progressUntil(m.timeout, func() bool {
		for _, ch := range m.channels {
			if ch != nil && !ch.up {
				err = ch.failed()
				return err != nil
			}
		}
		return true
	}) {
		return fmt.Errorf("tcpvia: rank %d's mesh not up after %v: %w", m.rank, m.timeout, ErrTimeout)
	}
	return err
}

// step is the manager's progress: it polls the node, adopts pending
// requests, and brings up every channel whose VI has connected — even if the
// peer closed it again within the same poll, after its messages arrived.
func (m *Manager) step() {
	m.node.Poll()
	m.adopt()
	for _, ch := range m.channels {
		if ch != nil && !ch.up && ch.Vi.cameUp {
			m.markUp(ch)
		}
	}
}

// progressUntil steps the manager, waiting for activity on the node between
// steps, until done reports true (and returns true) or timeout passes.
func (m *Manager) progressUntil(timeout time.Duration, done func() bool) bool {
	deadline := time.Now().Add(timeout)
	for m.step(); !done(); m.step() {
		left := time.Until(deadline)
		if left <= 0 {
			return false
		}
		m.node.WaitActivity(left)
	}
	return true
}

// adopt answers every pending request: a known peer's comes up on that
// peer's channel (§3.3); one from an unknown address, for a channel already
// up, or losing a crossing to the channel's own dial is refused.
func (m *Manager) adopt() {
	for reqs := m.node.PendingPeerRequests(); len(reqs) > 0; reqs = m.node.PendingPeerRequests() {
		req := reqs[0]
		rank := m.rankOf(req.From)
		if rank < 0 {
			m.node.Reject(req)
			m.logEvent(obs.EvConnReject, -1, 0, 0)
			continue
		}
		disc := int64(pairDisc(m.rank, rank))
		ch, err := m.channel(rank)
		if err != nil || ch.Vi.state == Connected || m.node.Accept(req, ch.Vi) != nil {
			m.node.Reject(req)
			m.logEvent(obs.EvConnReject, rank, disc, 0)
			continue
		}
		m.logEvent(obs.EvConnAccept, rank, disc, 0)
	}
}

func (m *Manager) rankOf(addr string) int {
	for r, a := range m.peers {
		if a == addr {
			return r
		}
	}
	return -1
}

// channel returns the channel to a peer, creating it and its VI, with the
// receive pool posted, on first use.
func (m *Manager) channel(rank int) (*Channel, error) {
	if ch := m.channels[rank]; ch != nil {
		return ch, nil
	}
	vi, err := m.node.CreateVi()
	if err != nil {
		return nil, err
	}
	for range recvPool {
		_ = vi.PostRecv(make([]byte, recvBufSize))
	}
	ch := &Channel{Rank: rank, Vi: vi}
	m.channels[rank] = ch
	m.logEvent(obs.EvViCreate, rank, int64(m.node.stats.VisCreated), 0)
	return ch, nil
}

// open steps the manager and returns the channel to a peer rank.
func (m *Manager) open(rank int) (*Channel, error) {
	if rank < 0 || rank >= len(m.peers) || rank == m.rank {
		return nil, fmt.Errorf("tcpvia: rank %d has no channel to rank %d", m.rank, rank)
	}
	m.step()
	return m.channel(rank)
}

// markUp flips the channel and drains its FIFO in order (paper §3.4).
func (m *Manager) markUp(ch *Channel) {
	for _, data := range ch.fifo {
		ch.Vi.PostSend(data)
	}
	if len(ch.fifo) > 0 {
		m.logEvent(obs.EvFifoDrain, ch.Rank, int64(len(ch.fifo)), 0)
	}
	ch.fifo = nil
	ch.up = true
	m.logEvent(obs.EvConnUp, ch.Rank, int64(pairDisc(m.rank, ch.Rank)), 0)
}

// dial issues the channel's connect request unless it is up or has one in
// flight — or the last one failed, which it returns, so a send parked
// behind a dead dial is never stranded silently.
func (m *Manager) dial(ch *Channel) error {
	if err := ch.failed(); err != nil || ch.up || ch.Vi.state != Idle {
		return err
	}
	disc := pairDisc(m.rank, ch.Rank)
	m.logEvent(obs.EvConnRequest, ch.Rank, int64(disc), 0)
	return m.node.ConnectPeerRequest(ch.Vi, m.peers[ch.Rank], disc, m.timeout)
}

// Send transmits data to a peer rank. Under on-demand, the first send
// triggers connection establishment; sends racing the handshake are parked
// in the FIFO and drained in order by a later call, so no message is ever
// discarded. Once the dial has failed, Send reports why instead of parking.
func (m *Manager) Send(rank int, data []byte) error {
	ch, err := m.open(rank)
	if err != nil {
		return err
	}
	if !ch.up {
		if err := ch.failed(); err != nil {
			return err
		}
		// Park a copy (the caller may reuse its buffer immediately).
		ch.fifo = append(ch.fifo, append([]byte(nil), data...))
		m.logEvent(obs.EvFifoPark, rank, int64(len(ch.fifo)), int64(len(data)))
		if m.policy == "ondemand" {
			return m.dial(ch)
		}
		return nil
	}
	st, err := ch.Vi.PostSend(data)
	if err != nil {
		return err
	}
	if st == Discarded {
		return fmt.Errorf("tcpvia: send discarded in state %v", ch.Vi.state)
	}
	m.logEvent(obs.EvMsgSend, rank, int64(len(data)), 0)
	return nil
}

// Recv waits, stepping the manager, for the next message from a peer rank;
// a failed dial to that peer is reported in place of the timeout it would
// otherwise cause.
func (m *Manager) Recv(rank int, timeout time.Duration) ([]byte, error) {
	ch, err := m.open(rank)
	if err != nil {
		return nil, err
	}
	if m.policy == "ondemand" {
		// Receiver-side connect (paper §4): a receive for a specific source
		// initiates the connection if the sender has not already.
		if err := m.dial(ch); err != nil {
			return nil, err
		}
	}
	var c completion
	var ok bool
	if !m.progressUntil(timeout, func() bool {
		if c, ok, err = ch.Vi.received(); !ok && err == nil {
			err = ch.failed()
		}
		return ok || err != nil
	}) {
		return nil, ErrTimeout
	}
	if !ok {
		return nil, err
	}
	out := make([]byte, c.n)
	copy(out, c.buf[:c.n])
	// Recycle the pool buffer.
	_ = ch.Vi.PostRecv(c.buf)
	m.logEvent(obs.EvMsgRecv, rank, int64(c.n), 0)
	return out, nil
}

// Connections reports how many channels have come up — the Table 2
// quantity on the live network.
func (m *Manager) Connections() int {
	m.step()
	n := 0
	for _, ch := range m.channels {
		if ch != nil && ch.up {
			n++
		}
	}
	return n
}

// Close finishes what is parked first, as MPI_Finalize completes a rank's
// sends: it steps the manager until every FIFO has drained or its dial has
// failed, or the timeout passes. It then closes every channel and the node,
// and stops the snapshot loop after one final snapshot.
func (m *Manager) Close() {
	if m.closed {
		return
	}
	m.closed = true
	m.progressUntil(m.timeout, func() bool {
		for _, ch := range m.channels {
			if ch != nil && len(ch.fifo) > 0 && ch.failed() == nil {
				return false
			}
		}
		return true
	})
	for _, ch := range m.channels {
		if ch != nil {
			ch.Vi.Close()
		}
	}
	// The listener's close error has no caller to go to here; Node.Close is
	// idempotent, so an owner that wants it closes the node first.
	_ = m.node.Close()
	if m.snapStop != nil {
		close(m.snapStop)
		m.snapWG.Wait()
	}
}
