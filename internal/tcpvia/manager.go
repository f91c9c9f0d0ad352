package tcpvia

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"viampi/internal/obs"
)

// Manager applies the paper's connection-management policies to a group of
// tcpvia nodes identified by rank: "static" builds the full mesh up front;
// "ondemand" creates a VI and dials lazily on first use, parking sends in a
// per-channel FIFO until the connection is up (paper §3.4) and adopting
// incoming requests as they arrive (§3.3, here with a goroutine instead of
// the single-threaded poll, since this stack is genuinely concurrent).
type Manager struct {
	node   *Node
	rank   int
	peers  []string // rank -> listen address
	policy string

	mu       sync.Mutex
	channels map[int]*Channel
	timeout  time.Duration
	closed   bool
	adoptWG  sync.WaitGroup

	// log is the optional wall-clock flight recorder and the manager's one
	// emission path: it folds every event into the metrics the snapshot
	// loop writes. EventLog serializes itself, so emissions need no manager
	// lock.
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

	mu      sync.Mutex
	up      bool
	dialing bool  // an on-demand dial is in flight
	err     error // why the last dial failed; cleared if the peer's dial brings the channel up
	fifo    [][]byte
	upped   chan struct{}
}

// Up reports whether the channel's connection is established and drained.
func (c *Channel) Up() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.up
}

// dialErr reports why the channel's on-demand dial failed, if it did.
func (c *Channel) dialErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
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
		policy:   cfg.Policy,
		channels: make(map[int]*Channel),
		timeout:  cfg.Timeout,
		log:      cfg.Log,
	}
	switch cfg.Policy {
	case "static":
		if err := m.connectAll(); err != nil {
			return nil, err
		}
	case "ondemand":
		// Adopt incoming requests in the background.
		m.adoptWG.Add(1)
		go m.adoptLoop()
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

// pairDisc is the canonical discriminator for a rank pair (never 0, since 0
// is the "match any" wildcard in WaitRequest).
func pairDisc(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b) | 1<<63
}

// connectAll builds the full mesh: lower rank dials, higher rank accepts —
// the static policy.
func (m *Manager) connectAll() error {
	var wg sync.WaitGroup
	errs := make([]error, len(m.peers))
	for r := range m.peers {
		if r == m.rank {
			continue
		}
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := m.establish(r)
			errs[r] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// adoptWait is how long adoptLoop blocks in one WaitRequest before asking
// again; an idle interval is not a reason to stop adopting.
var adoptWait = time.Hour

// adoptLoop services incoming connection requests under on-demand until the
// node closes.
func (m *Manager) adoptLoop() {
	defer m.adoptWG.Done()
	for {
		req, err := m.node.WaitRequest(0, adoptWait)
		if errors.Is(err, ErrTimeout) {
			continue
		}
		if err != nil {
			return // ErrClosed
		}
		rank := m.rankOf(req.From)
		if rank < 0 {
			req.Reject()
			m.logEvent(obs.EvConnReject, -1, 0, 0)
			continue
		}
		ch := m.channel(rank)
		if ch.Vi == nil || ch.Vi.State() == Connected {
			req.Reject()
			m.logEvent(obs.EvConnReject, rank, int64(pairDisc(m.rank, rank)), 0)
			continue
		}
		// Accept adopts onto an Idle VI, or resolves a crossing dial onto a
		// Connecting one; anything else is answered so the peer's dialer
		// never hangs.
		if err := m.node.Accept(req, ch.Vi); err != nil {
			req.Reject()
			m.logEvent(obs.EvConnReject, rank, int64(pairDisc(m.rank, rank)), 0)
			continue
		}
		m.logEvent(obs.EvConnAccept, rank, int64(pairDisc(m.rank, rank)), 0)
		m.markUp(ch)
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

// channel returns (creating if needed) the channel struct and its prepared
// VI for a peer.
func (m *Manager) channel(rank int) *Channel {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ch, ok := m.channels[rank]; ok {
		return ch
	}
	vi, err := m.node.CreateVi()
	if err != nil {
		// Surface the error through a dead channel; sends will report it.
		ch := &Channel{Rank: rank, upped: make(chan struct{})}
		m.channels[rank] = ch
		return ch
	}
	for range recvPool {
		_ = vi.PostRecv(make([]byte, recvBufSize))
	}
	ch := &Channel{Rank: rank, Vi: vi, upped: make(chan struct{})}
	m.channels[rank] = ch
	m.logEvent(obs.EvViCreate, rank, int64(len(m.channels)), 0)
	return ch
}

// establish creates the channel and synchronously connects it (static path,
// and the dialing side of on-demand).
func (m *Manager) establish(rank int) (*Channel, error) {
	ch := m.channel(rank)
	if ch.Vi == nil {
		return nil, ErrTooManyVIs
	}
	ch.mu.Lock()
	if ch.up {
		ch.mu.Unlock()
		return ch, nil
	}
	ch.mu.Unlock()
	m.logEvent(obs.EvConnRequest, rank, int64(pairDisc(m.rank, rank)), 0)
	err := m.node.ConnectPeer(ch.Vi, m.peers[rank], pairDisc(m.rank, rank), m.timeout)
	if err != nil && ch.Vi.State() != Connected {
		return nil, err
	}
	m.markUp(ch)
	return ch, nil
}

// markUp flips the channel and drains its FIFO in order (paper §3.4). The
// channel lock is held across the drain so sends racing the transition
// queue behind the parked messages instead of overtaking them.
func (m *Manager) markUp(ch *Channel) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.up {
		return
	}
	for _, data := range ch.fifo {
		ch.Vi.PostSend(data)
	}
	if len(ch.fifo) > 0 {
		m.logEvent(obs.EvFifoDrain, ch.Rank, int64(len(ch.fifo)), 0)
	}
	ch.fifo = nil
	ch.up, ch.err = true, nil
	m.logEvent(obs.EvConnUp, ch.Rank, int64(pairDisc(m.rank, ch.Rank)), 0)
	close(ch.upped)
}

// dial starts the on-demand connect for ch unless the channel is up, a dial
// is already in flight, or the last one failed — and returns that failure,
// so a send parked behind a dead dial is never stranded silently.
func (m *Manager) dial(ch *Channel) error {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.up || ch.dialing || ch.err != nil {
		return ch.err
	}
	ch.dialing = true
	go func() {
		_, err := m.establish(ch.Rank)
		ch.mu.Lock()
		ch.dialing = false
		if err != nil && !ch.up {
			ch.err = fmt.Errorf("tcpvia: connect to rank %d: %w", ch.Rank, err)
		}
		ch.mu.Unlock()
	}()
	return nil
}

// Send transmits data to a peer rank. Under on-demand, the first send
// triggers connection establishment; sends racing the handshake are parked
// in the FIFO and drained in order, so no message is ever discarded. Once
// the dial has failed, Send reports why instead of parking.
func (m *Manager) Send(rank int, data []byte) error {
	if rank == m.rank {
		return fmt.Errorf("tcpvia: self-send not supported at this layer")
	}
	ch := m.channel(rank)
	if ch.Vi == nil {
		return ErrTooManyVIs
	}
	ch.mu.Lock()
	if !ch.up {
		if err := ch.err; err != nil {
			ch.mu.Unlock()
			return err
		}
		// Park a copy (the caller may reuse its buffer immediately).
		ch.fifo = append(ch.fifo, append([]byte(nil), data...))
		depth := len(ch.fifo)
		ch.mu.Unlock()
		m.logEvent(obs.EvFifoPark, rank, int64(depth), int64(len(data)))
		if m.policy == "ondemand" {
			return m.dial(ch)
		}
		return nil
	}
	ch.mu.Unlock()
	st, err := ch.Vi.PostSend(data)
	if err != nil {
		return err
	}
	if st == Discarded {
		return fmt.Errorf("tcpvia: send discarded in state %v", ch.Vi.State())
	}
	m.logEvent(obs.EvMsgSend, rank, int64(len(data)), 0)
	return nil
}

// Recv blocks for the next message from a peer rank; a failed dial to that
// peer is reported in place of the timeout it would otherwise cause.
func (m *Manager) Recv(rank int, timeout time.Duration) ([]byte, error) {
	ch := m.channel(rank)
	if ch.Vi == nil {
		return nil, ErrTooManyVIs
	}
	if m.policy == "ondemand" {
		// Receiver-side connect (paper §4): a receive for a specific source
		// initiates the connection if the sender has not already.
		if err := m.dial(ch); err != nil {
			return nil, err
		}
	}
	buf, ln, err := ch.Vi.RecvWait(timeout)
	if err != nil {
		if derr := ch.dialErr(); derr != nil {
			return nil, derr
		}
		return nil, err
	}
	out := make([]byte, ln)
	copy(out, buf[:ln])
	// Recycle the pool buffer.
	_ = ch.Vi.PostRecv(buf)
	m.logEvent(obs.EvMsgRecv, rank, int64(ln), 0)
	return out, nil
}

// Connections reports how many channels are established — the Table 2
// quantity on the live network.
func (m *Manager) Connections() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, ch := range m.channels {
		if ch.Up() {
			n++
		}
	}
	return n
}

// Close tears down all channels, stops the snapshot loop (writing one final
// snapshot), and closes the node so the adopt loop ends before Close returns.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	if m.snapStop != nil {
		close(m.snapStop)
	}
	chans := make([]*Channel, 0, len(m.channels))
	for _, ch := range m.channels {
		chans = append(chans, ch)
	}
	m.mu.Unlock()
	m.snapWG.Wait()
	for _, ch := range chans {
		if ch.Vi != nil {
			ch.Vi.Close()
		}
	}
	// The listener's close error has no caller to go to here; Node.Close is
	// idempotent, so an owner that wants it closes the node first.
	_ = m.node.Close()
	m.adoptWG.Wait()
}
