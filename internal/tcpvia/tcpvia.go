// Package tcpvia is a real-network twin of the simulated via package: the
// same Virtual Interface Architecture semantics — connected VI endpoints,
// pre-posted receive descriptors, send-on-unconnected-VI discards, a
// peer-to-peer connection model with discriminator matching — implemented
// over TCP sockets and wall-clock time.
//
// The calibration notes for this reproduction flag that, absent VIA
// hardware, the system "would approximate with sockets only"; this package
// is that approximation, built so the paper's connection-management
// mechanisms (static vs. on-demand, pre-posted send FIFOs) can be exercised
// and measured on a live network. The discrete-event via package remains
// the substrate for the paper's figures (its timing is controllable); this
// one demonstrates the mechanism where timing is real.
//
// Concurrency model: one reader goroutine per TCP connection feeds VI
// receive queues; all state is guarded by a per-node mutex with condition
// variables for blocking waits. Unlike the simulated stack there is no
// global scheduler — this is ordinary concurrent Go.
package tcpvia

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Errors returned by the tcpvia layer.
var (
	ErrClosed       = errors.New("tcpvia: node or VI closed")
	ErrBadState     = errors.New("tcpvia: operation invalid in current VI state")
	ErrTimeout      = errors.New("tcpvia: operation timed out")
	ErrRejected     = errors.New("tcpvia: connection request rejected")
	ErrTooManyVIs   = errors.New("tcpvia: VI limit exceeded")
	ErrNoDescriptor = errors.New("tcpvia: message arrived with no posted receive descriptor")
)

// ViState mirrors the VIA connection state machine.
type ViState int

// VI endpoint states.
const (
	Idle ViState = iota
	Connecting
	Connected
	Errored
	Closed
)

func (s ViState) String() string {
	switch s {
	case Idle:
		return "idle"
	case Connecting:
		return "connecting"
	case Connected:
		return "connected"
	case Errored:
		return "error"
	case Closed:
		return "closed"
	default:
		return fmt.Sprintf("ViState(%d)", int(s))
	}
}

// SendStatus reports what happened to a posted send.
type SendStatus int

// Send outcomes. Discarded mirrors VIA's silent drop of sends posted to an
// unconnected VI — the hazard on-demand connection management must handle.
const (
	Sent SendStatus = iota
	Discarded
)

// Config tunes a Node.
type Config struct {
	ListenAddr string // e.g. "127.0.0.1:0"
	MaxVIs     int    // 0 = unlimited

	// StrictDescriptors selects VIA-faithful receive semantics: a message
	// arriving on a VI with no posted receive descriptor breaks the
	// connection, exactly as the simulated via package (and real VIA
	// reliable delivery) behaves. When false (the default), the connection
	// reader instead waits for a descriptor, letting TCP's own
	// backpressure throttle the sender — the pragmatic choice on a stream
	// transport, standing in for the credit flow control an MPI layer
	// would provide.
	StrictDescriptors bool
}

// Stats counts a node's resource usage (the Table 2 quantities, live).
type Stats struct {
	VisCreated     int
	VisConnected   int
	VisUsed        int
	MsgsSent       int64
	BytesSent      int64
	MsgsRecv       int64
	BytesRecv      int64
	DiscardedSends int64
}

// PeerRequest is an incoming, not-yet-accepted connection request.
type PeerRequest struct {
	From string // remote node's listen address
	Disc uint64

	conn   net.Conn
	viID   uint32
	node   *Node
	doneMu sync.Mutex
	done   bool
}

// wire message kinds
const (
	kHello byte = iota + 1 // dialer -> acceptor: disc, src vi id, src listen addr
	kAccept
	kReject
	kBusy // crossing-dial tie-break: use the other connection
	kData
	kClose
)

// VI is a Virtual Interface endpoint over one TCP connection.
type VI struct {
	node *Node
	id   uint32

	state    ViState
	remote   string // remote listen address (once connecting/connected)
	disc     uint64
	conn     net.Conn
	remoteVi uint32

	recvQ   [][]byte // posted receive buffers, FIFO
	doneQ   []int    // completed receive lengths, FIFO (parallel to consumed bufs)
	doneBuf [][]byte

	// writeMu serializes frame writes: net.Conn gives no atomicity across
	// concurrent writers, and message order on the wire must match post
	// order.
	writeMu sync.Mutex

	usedTx, usedRx bool
}

// Node is a process's endpoint: it owns a listener, its VIs, and the
// pending-request queue.
type Node struct {
	mu   sync.Mutex
	cond *sync.Cond

	cfg      Config
	ln       net.Listener
	addr     string
	vis      map[uint32]*VI
	nextVi   uint32
	pending  []*PeerRequest
	outgoing map[uint64]*VI // disc -> dialing VI (for crossing tie-break)
	closed   bool

	stats Stats
	wg    sync.WaitGroup
}

// Listen creates a node listening for peer connections.
func Listen(cfg Config) (*Node, error) {
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:      cfg,
		ln:       ln,
		addr:     ln.Addr().String(),
		vis:      make(map[uint32]*VI),
		outgoing: make(map[uint64]*VI),
	}
	n.cond = sync.NewCond(&n.mu)
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the node's listen address (its VIA network address).
func (n *Node) Addr() string { return n.addr }

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.stats
	s.VisUsed = 0
	for _, vi := range n.vis {
		if vi.usedTx || vi.usedRx {
			s.VisUsed++
		}
	}
	return s
}

// Close shuts the node down, closing every VI and the listener.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	vis := make([]*VI, 0, len(n.vis))
	for _, vi := range n.vis {
		vis = append(vis, vi)
	}
	n.cond.Broadcast()
	n.mu.Unlock()

	for _, vi := range vis {
		vi.Close()
	}
	err := n.ln.Close()
	n.wg.Wait()
	return err
}

// CreateVi creates an idle VI endpoint.
func (n *Node) CreateVi() (*VI, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if n.cfg.MaxVIs > 0 {
		live := 0
		for _, v := range n.vis {
			if v.state != Closed {
				live++
			}
		}
		if live >= n.cfg.MaxVIs {
			return nil, fmt.Errorf("%w (%d)", ErrTooManyVIs, n.cfg.MaxVIs)
		}
	}
	n.nextVi++
	vi := &VI{node: n, id: n.nextVi, state: Idle}
	n.vis[vi.id] = vi
	n.stats.VisCreated++
	return vi, nil
}

// acceptLoop handles inbound TCP connections: each starts with a HELLO and
// either matches a crossing dial, is accepted by a waiting server, or is
// queued as a pending peer request.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handleInbound(conn)
		}()
	}
}

func (n *Node) handleInbound(conn net.Conn) {
	kind, payload, err := readFrame(conn)
	if err != nil || kind != kHello {
		conn.Close()
		return
	}
	if len(payload) < 12 {
		conn.Close()
		return
	}
	disc := binary.LittleEndian.Uint64(payload)
	viID := binary.LittleEndian.Uint32(payload[8:])
	from := string(payload[12:])

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return
	}
	// A VI already connected under this (disc, peer): the HELLO is the late
	// half of a crossing dial. Answer kBusy so the dialer observes its VI
	// is connected and succeeds instead of timing out on an orphaned
	// connection.
	for _, vi := range n.vis {
		if vi.disc == disc && vi.remote == from && vi.state == Connected {
			n.mu.Unlock()
			writeFrame(conn, kBusy, nil)
			conn.Close()
			return
		}
	}
	// Crossing dial tie-break: if we are dialing the same discriminator to
	// the same peer, the connection dialed by the smaller address survives.
	if out, ok := n.outgoing[disc]; ok && out.remote == from && out.state == Connecting {
		if n.addr < from {
			// Our dial wins; tell the peer to use it.
			n.mu.Unlock()
			writeFrame(conn, kBusy, nil)
			conn.Close()
			return
		}
		// Their dial wins: adopt this connection for our dialing VI. The
		// write lock is held from before the state turns Connected until
		// kAccept is out, so a send that starts the moment the state is
		// visible queues behind the handshake frame instead of overtaking it.
		delete(n.outgoing, disc)
		out.writeMu.Lock()
		out.adoptLocked(conn, viID)
		n.stats.VisConnected++
		n.mu.Unlock()
		writeFrame(conn, kAccept, u32(out.id))
		out.writeMu.Unlock()
		out.startReader()
		return
	}
	req := &PeerRequest{From: from, Disc: disc, conn: conn, viID: viID, node: n}
	n.pending = append(n.pending, req)
	n.cond.Broadcast()
	n.mu.Unlock()
}

// pendingLocked returns (and removes) a queued incoming connection request,
// optionally filtered by discriminator (disc == 0 matches any), or nil when
// none is queued. The node lock is held.
func (n *Node) pendingLocked(disc uint64) *PeerRequest {
	for i, r := range n.pending {
		if disc == 0 || r.Disc == disc {
			n.pending = append(n.pending[:i], n.pending[i+1:]...)
			return r
		}
	}
	return nil
}

// WaitRequest blocks until a request (matching disc, or any if disc == 0)
// arrives or the timeout elapses.
func (n *Node) WaitRequest(disc uint64, timeout time.Duration) (*PeerRequest, error) {
	deadline := time.Now().Add(timeout)
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		if r := n.pendingLocked(disc); r != nil {
			return r, nil
		}
		if n.closed {
			return nil, ErrClosed
		}
		if time.Now().After(deadline) {
			return nil, ErrTimeout
		}
		n.waitLocked(deadline)
	}
}

// waitLocked waits on the node condition with a deadline, using a timer to
// break the wait.
func (n *Node) waitLocked(deadline time.Time) {
	t := time.AfterFunc(time.Until(deadline)+time.Millisecond, func() {
		n.mu.Lock()
		n.cond.Broadcast()
		n.mu.Unlock()
	})
	defer t.Stop()
	n.cond.Wait()
}

// Accept completes a pending request on vi. The VI may be Idle, or
// Connecting with a matching (disc, peer) — the latter is a crossing dial
// resolving through the request queue, settled by the same tie-break as
// handleInbound: if the peer's dial wins, the VI adopts the inbound
// connection and the outstanding dial completes benignly when it observes
// the state; if ours wins, the request is answered kBusy and Accept returns
// ErrBadState, leaving the dial to carry the connection. Without the
// tie-break each end could keep the connection the other one drops.
func (n *Node) Accept(req *PeerRequest, vi *VI) error {
	req.doneMu.Lock()
	defer req.doneMu.Unlock()
	if req.done {
		return ErrClosed
	}

	n.mu.Lock()
	switch {
	case vi.state == Idle:
		vi.remote = req.From
		vi.disc = req.Disc
	case vi.state == Connecting && vi.disc == req.Disc && vi.remote == req.From:
		if n.addr < req.From {
			n.mu.Unlock()
			req.done = true
			writeFrame(req.conn, kBusy, nil)
			req.conn.Close()
			return fmt.Errorf("%w: crossing dial to %s wins the tie-break", ErrBadState, req.From)
		}
		delete(n.outgoing, req.Disc)
	default:
		st := vi.state
		n.mu.Unlock()
		return fmt.Errorf("%w: Accept in state %v", ErrBadState, st)
	}
	req.done = true
	vi.writeMu.Lock() // as in handleInbound: no send may overtake kAccept
	vi.adoptLocked(req.conn, req.viID)
	n.stats.VisConnected++
	n.mu.Unlock()
	err := writeFrame(req.conn, kAccept, u32(vi.id))
	vi.writeMu.Unlock()
	if err != nil {
		return err
	}
	vi.startReader()
	return nil
}

// Reject refuses a pending request and closes its connection.
func (req *PeerRequest) Reject() {
	req.doneMu.Lock()
	defer req.doneMu.Unlock()
	if req.done {
		return
	}
	req.done = true
	writeFrame(req.conn, kReject, nil)
	req.conn.Close()
}

// ConnectPeer connects vi to the VI listening at remote under disc,
// blocking up to timeout. Crossing dials (both sides calling ConnectPeer
// simultaneously with the same discriminator) resolve to a single
// connection deterministically.
func (n *Node) ConnectPeer(vi *VI, remote string, disc uint64, timeout time.Duration) error {
	n.mu.Lock()
	if st := vi.state; st != Idle {
		n.mu.Unlock()
		return fmt.Errorf("%w: ConnectPeer in state %v", ErrBadState, st)
	}
	// A matching request may already be queued: adopt it directly.
	for i, r := range n.pending {
		if r.Disc == disc && r.From == remote {
			n.pending = append(n.pending[:i], n.pending[i+1:]...)
			n.mu.Unlock()
			return n.Accept(r, vi)
		}
	}
	vi.state = Connecting
	vi.remote = remote
	vi.disc = disc
	n.outgoing[disc] = vi
	n.mu.Unlock()

	d := net.Dialer{Timeout: timeout}
	conn, err := d.Dial("tcp", remote)
	if err != nil {
		n.failDial(vi, disc)
		return err
	}
	hello := make([]byte, 12+len(n.addr))
	binary.LittleEndian.PutUint64(hello, disc)
	binary.LittleEndian.PutUint32(hello[8:], vi.id)
	copy(hello[12:], n.addr)
	if err := writeFrame(conn, kHello, hello); err != nil {
		conn.Close()
		n.failDial(vi, disc)
		return err
	}
	conn.SetReadDeadline(time.Now().Add(timeout))
	kind, payload, err := readFrame(conn)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		n.failDial(vi, disc)
		if vi.State() == Connected {
			return nil // crossing resolved through another connection
		}
		return fmt.Errorf("tcpvia: handshake: %w", err)
	}
	switch kind {
	case kAccept:
		n.mu.Lock()
		delete(n.outgoing, disc)
		if vi.state == Connected {
			// Crossing already resolved in our favour on the inbound path.
			n.mu.Unlock()
			conn.Close()
			return nil
		}
		vi.adoptLocked(conn, binary.LittleEndian.Uint32(payload))
		n.stats.VisConnected++
		n.mu.Unlock()
		vi.startReader()
		return nil
	case kBusy:
		// The peer kept our crossing inbound connection instead; wait for
		// the inbound path to finish adopting it.
		conn.Close()
		deadline := time.Now().Add(timeout)
		n.mu.Lock()
		for vi.state == Connecting && !time.Now().After(deadline) {
			n.waitLocked(deadline)
		}
		ok := vi.state == Connected
		n.mu.Unlock()
		if !ok {
			n.failDial(vi, disc)
			return ErrTimeout
		}
		return nil
	case kReject:
		conn.Close()
		n.failDial(vi, disc)
		if vi.State() == Connected {
			return nil
		}
		return ErrRejected
	default:
		conn.Close()
		n.failDial(vi, disc)
		if vi.State() == Connected {
			return nil
		}
		return fmt.Errorf("tcpvia: unexpected handshake frame %d", kind)
	}
}

func (n *Node) failDial(vi *VI, disc uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.outgoing[disc] == vi {
		delete(n.outgoing, disc)
	}
	if vi.state == Connecting {
		vi.state = Idle
		vi.remote = ""
	}
}

// adoptLocked binds a TCP connection to the VI (node lock held).
func (vi *VI) adoptLocked(conn net.Conn, remoteVi uint32) {
	vi.conn = conn
	vi.remoteVi = remoteVi
	vi.state = Connected
	vi.node.cond.Broadcast()
}

// startReader launches the connection reader feeding the VI's receive
// descriptors.
func (vi *VI) startReader() {
	vi.node.wg.Add(1)
	go func() {
		defer vi.node.wg.Done()
		vi.readLoop()
	}()
}

func (vi *VI) readLoop() {
	n := vi.node
	for {
		kind, payload, err := readFrame(vi.conn)
		if err != nil {
			n.mu.Lock()
			if vi.state == Connected {
				vi.state = Errored
			}
			n.cond.Broadcast()
			n.mu.Unlock()
			return
		}
		switch kind {
		case kData:
			n.mu.Lock()
			if !n.cfg.StrictDescriptors {
				// Wait for a descriptor; not reading the socket applies TCP
				// backpressure to the sender.
				for len(vi.recvQ) == 0 && vi.state == Connected && !n.closed {
					n.cond.Wait()
				}
			}
			if vi.state != Connected || n.closed {
				n.mu.Unlock()
				return
			}
			if len(vi.recvQ) == 0 {
				// VIA reliable delivery: no posted descriptor kills the
				// connection.
				vi.state = Errored
				n.cond.Broadcast()
				n.mu.Unlock()
				vi.conn.Close()
				return
			}
			buf := vi.recvQ[0]
			vi.recvQ = vi.recvQ[1:]
			cp := copy(buf, payload)
			vi.doneBuf = append(vi.doneBuf, buf)
			vi.doneQ = append(vi.doneQ, cp)
			vi.usedRx = true
			n.stats.MsgsRecv++
			n.stats.BytesRecv += int64(len(payload))
			n.cond.Broadcast()
			n.mu.Unlock()
		case kClose:
			n.mu.Lock()
			if vi.state == Connected {
				vi.state = Closed
			}
			n.cond.Broadcast()
			n.mu.Unlock()
			vi.conn.Close()
			return
		default:
			// Ignore unknown frames for forward compatibility.
		}
	}
}

// State returns the VI's connection state.
func (vi *VI) State() ViState {
	vi.node.mu.Lock()
	defer vi.node.mu.Unlock()
	return vi.state
}

// ID returns the VI id, unique within its node.
func (vi *VI) ID() uint32 { return vi.id }

// PostRecv posts a receive buffer. As in VIA, receives must be posted
// before the matching message arrives.
func (vi *VI) PostRecv(buf []byte) error {
	n := vi.node
	n.mu.Lock()
	defer n.mu.Unlock()
	switch vi.state {
	case Idle, Connecting, Connected:
		vi.recvQ = append(vi.recvQ, buf)
		n.cond.Broadcast() // a reader may be waiting for a descriptor
		return nil
	default:
		return fmt.Errorf("%w: PostRecv in state %v", ErrBadState, vi.state)
	}
}

// PostSend transmits data on the VI. A send posted to an unconnected VI is
// *discarded* (VIA semantics) and reported as such.
func (vi *VI) PostSend(data []byte) (SendStatus, error) {
	n := vi.node
	n.mu.Lock()
	if vi.state != Connected {
		n.stats.DiscardedSends++
		st := vi.state
		n.mu.Unlock()
		if st == Errored || st == Closed {
			return Discarded, fmt.Errorf("%w: send in state %v", ErrBadState, st)
		}
		return Discarded, nil
	}
	conn := vi.conn
	vi.usedTx = true
	n.stats.MsgsSent++
	n.stats.BytesSent += int64(len(data))
	n.mu.Unlock()
	vi.writeMu.Lock()
	err := writeFrame(conn, kData, data)
	vi.writeMu.Unlock()
	if err != nil {
		return Discarded, err
	}
	return Sent, nil
}

// RecvDone polls for a completed receive, returning the filled buffer and
// length, or ok == false.
func (vi *VI) RecvDone() (buf []byte, length int, ok bool) {
	n := vi.node
	n.mu.Lock()
	defer n.mu.Unlock()
	return vi.recvDoneLocked()
}

func (vi *VI) recvDoneLocked() ([]byte, int, bool) {
	if len(vi.doneQ) == 0 {
		return nil, 0, false
	}
	b, l := vi.doneBuf[0], vi.doneQ[0]
	vi.doneBuf = vi.doneBuf[1:]
	vi.doneQ = vi.doneQ[1:]
	return b, l, true
}

// RecvWait blocks until a receive completes or the timeout elapses.
func (vi *VI) RecvWait(timeout time.Duration) ([]byte, int, error) {
	n := vi.node
	deadline := time.Now().Add(timeout)
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		if b, l, ok := vi.recvDoneLocked(); ok {
			return b, l, nil
		}
		switch vi.state {
		case Errored:
			return nil, 0, ErrNoDescriptor
		case Closed:
			return nil, 0, ErrClosed
		case Idle, Connecting, Connected:
			// Live states: keep waiting for a completion or the deadline.
		}
		if time.Now().After(deadline) {
			return nil, 0, ErrTimeout
		}
		n.waitLocked(deadline)
	}
}

// Close disconnects the VI, notifying the peer.
func (vi *VI) Close() {
	n := vi.node
	n.mu.Lock()
	if vi.state == Closed {
		n.mu.Unlock()
		return
	}
	wasConnected := vi.state == Connected
	conn := vi.conn
	vi.state = Closed
	n.cond.Broadcast()
	n.mu.Unlock()
	if wasConnected && conn != nil {
		writeFrame(conn, kClose, nil)
		conn.Close()
	}
}

// ---------------------------------------------------------------------------
// Framing

// writeFrame emits [kind u8][len u32 le][payload].
func writeFrame(conn net.Conn, kind byte, payload []byte) error {
	hdr := make([]byte, 5+len(payload))
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	copy(hdr[5:], payload)
	_, err := conn.Write(hdr)
	return err
}

const maxFrame = 64 << 20

func readFrame(conn net.Conn) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return 0, nil, err
	}
	size := binary.LittleEndian.Uint32(hdr[1:])
	if size > maxFrame {
		return 0, nil, fmt.Errorf("tcpvia: frame of %d bytes exceeds limit", size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

func u32(v uint32) []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, v)
	return b
}
