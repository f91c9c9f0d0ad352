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
// Concurrency model: a node, its VIs, its pending requests and a Manager
// over it belong to one owner goroutine at a time — the caller of their
// methods — as a simulated via.Port belongs to its process; ownership
// passes between goroutines only through a synchronizing operation (a
// channel send, WaitGroup.Wait). Goroutines run only where a syscall
// blocks: the accept loop, and one per TCP connection that dials it
// (outbound only) and then decodes its frames into the node's inbox. Every
// state transition, handshake reply and socket write happens on the owner,
// inside Poll or WaitActivity, which select on that inbox and one timer. A
// connection's goroutine reads no further past a data frame until the owner
// has put it into a posted receive descriptor, so a receiver that posts
// none throttles its sender through TCP.
package tcpvia

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"
)

// Errors returned by the tcpvia layer.
var (
	ErrClosed     = errors.New("tcpvia: node or VI closed")
	ErrBadState   = errors.New("tcpvia: operation invalid in current VI state")
	ErrTimeout    = errors.New("tcpvia: operation timed out")
	ErrRejected   = errors.New("tcpvia: connection request rejected")
	ErrTooManyVIs = errors.New("tcpvia: VI limit exceeded")
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

// PeerRequest is an incoming, not-yet-answered connection request.
type PeerRequest struct {
	From string // remote node's listen address
	Disc uint64

	l        *link
	remoteVi uint32
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

// A link is one TCP connection and the goroutine that dials or accepts it
// and then reads it.
type link struct {
	conn  net.Conn      // set once the connection is open
	ack   chan struct{} // owner -> reader: the data frame handed over is delivered
	vi    *VI           // the VI it dials for or carries; nil for an inbound one until accepted
	hello bool          // an inbound connection's HELLO has arrived
}

// An arrival is what a connection's goroutine hands the owner: the
// connection once it is open, then each frame read from it, then the error
// that ended it.
type arrival struct {
	l       *link
	conn    net.Conn
	kind    byte
	payload []byte
	err     error
}

// A completion is a filled receive descriptor.
type completion struct {
	buf []byte
	n   int
}

// VI is a Virtual Interface endpoint over one TCP connection.
type VI struct {
	node *Node
	id   uint32

	state    ViState
	remote   string // remote listen address (once connecting/connected)
	disc     uint64
	link     *link // the connection dialing for or carrying the VI
	remoteVi uint32
	deadline time.Time // when a Connecting VI's request times out
	err      error     // why the last request failed, or the connection broke
	cameUp   bool      // it has been Connected, if only until the same Poll

	recvQ   [][]byte     // posted receive buffers, FIFO
	done    []completion // completed receives, FIFO
	held    []byte       // a data frame that arrived with no posted buffer
	holding bool

	usedTx, usedRx bool
}

// Node is a process's endpoint: it owns a listener, its VIs, and the
// pending-request queue.
type Node struct {
	cfg     Config
	ln      net.Listener
	addr    string
	vis     []*VI // by id - 1
	pending []*PeerRequest
	links   []*link // every open connection, for Close
	closed  bool
	stats   Stats

	inbox  chan arrival
	ctx    context.Context // done at Close: dials abort, connection goroutines stop
	cancel context.CancelFunc
	timer  *time.Timer
	wg     sync.WaitGroup
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
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{
		cfg:    cfg,
		ln:     ln,
		addr:   ln.Addr().String(),
		inbox:  make(chan arrival),
		ctx:    ctx,
		cancel: cancel,
		timer:  time.NewTimer(time.Hour),
	}
	n.timer.Stop()
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the node's listen address (its VIA network address).
func (n *Node) Addr() string { return n.addr }

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats {
	s := n.stats
	for _, vi := range n.vis {
		if vi.usedTx || vi.usedRx {
			s.VisUsed++
		}
	}
	return s
}

// Close shuts the node down, closing every VI, connection and the listener,
// and returns once every goroutine of the node has exited.
func (n *Node) Close() error {
	if n.closed {
		return nil
	}
	n.closed = true
	for _, vi := range n.vis {
		vi.Close()
	}
	n.cancel()
	for _, l := range n.links {
		l.conn.Close()
	}
	n.pending = nil
	err := n.ln.Close()
	n.wg.Wait()
	return err
}

// CreateVi creates an idle VI endpoint.
func (n *Node) CreateVi() (*VI, error) {
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
	vi := &VI{node: n, id: uint32(len(n.vis) + 1)}
	n.vis = append(n.vis, vi)
	n.stats.VisCreated++
	return vi, nil
}

// acceptLoop gives each inbound TCP connection a goroutine of its own.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go n.serve(&link{ack: make(chan struct{}, 1)}, conn, "", time.Time{})
	}
}

// serve is the goroutine of one TCP connection; an outbound one (conn nil)
// dials remote first. It hands the owner the open connection, then every
// frame it reads, then the error that ends it. After a data frame it reads
// nothing more until the owner has delivered that frame.
func (n *Node) serve(l *link, conn net.Conn, remote string, deadline time.Time) {
	defer n.wg.Done()
	if conn == nil {
		d := net.Dialer{Deadline: deadline}
		c, err := d.DialContext(n.ctx, "tcp", remote)
		if err != nil {
			n.hand(arrival{l: l, err: err})
			return
		}
		conn = c
	}
	defer conn.Close()
	if !n.hand(arrival{l: l, conn: conn}) {
		return
	}
	for {
		kind, payload, err := readFrame(conn)
		if !n.hand(arrival{l: l, kind: kind, payload: payload, err: err}) || err != nil {
			return
		}
		if kind == kData {
			select {
			case <-l.ack:
			case <-n.ctx.Done():
				return
			}
		}
	}
}

// hand passes a to the owner, unless the node closes first.
func (n *Node) hand(a arrival) bool {
	select {
	case n.inbox <- a:
		return true
	case <-n.ctx.Done():
		return false
	}
}

// Poll handles, without waiting, every arrival the node's connections have
// ready, and fails each connect request whose deadline has passed. It
// reports whether anything happened.
func (n *Node) Poll() bool {
	did := n.expire()
	for {
		select {
		case a := <-n.inbox:
			n.handle(a)
			did = true
		default:
			return did
		}
	}
}

// WaitActivity is Poll, but when nothing is ready it waits up to timeout for
// an arrival or a connect deadline first. It reports whether anything
// happened.
func (n *Node) WaitActivity(timeout time.Duration) bool {
	if n.closed {
		return false
	}
	if n.Poll() {
		return true
	}
	for _, vi := range n.vis {
		if vi.state == Connecting {
			timeout = min(timeout, time.Until(vi.deadline))
		}
	}
	if timeout <= 0 {
		return false
	}
	n.timer.Reset(timeout)
	select {
	case a := <-n.inbox:
		n.timer.Stop()
		n.handle(a)
		n.Poll()
		return true
	case <-n.timer.C:
		return n.expire()
	}
}

// expire fails every connect request whose deadline has passed.
func (n *Node) expire() bool {
	did := false
	now := time.Now()
	for _, vi := range n.vis {
		if vi.state == Connecting && !now.Before(vi.deadline) {
			vi.fail(ErrTimeout)
			did = true
		}
	}
	return did
}

// handle applies one arrival to the node.
func (n *Node) handle(a arrival) {
	l, vi := a.l, a.l.vi
	live := vi != nil && vi.link == l // l is its VI's current connection
	switch {
	case a.conn != nil:
		l.conn = a.conn
		n.links = append(n.links, l)
		if live && vi.state == Connecting {
			hello := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(nil, vi.disc), vi.id)
			writeFrame(l.conn, kHello, append(hello, n.addr...))
		} else if vi != nil {
			l.conn.Close() // its VI gave the dial up while it was under way
		}
	case a.err != nil:
		n.links = slices.DeleteFunc(n.links, func(x *link) bool { return x == l })
		n.pending = slices.DeleteFunc(n.pending, func(r *PeerRequest) bool { return r.l == l })
		switch {
		case !live:
		case vi.state == Connecting:
			vi.fail(fmt.Errorf("tcpvia: connect to %s: %w", vi.remote, a.err))
		case vi.state == Connected:
			vi.drop()
			vi.state, vi.err = Errored, fmt.Errorf("tcpvia: connection to %s broken: %w", vi.remote, a.err)
		}
	case a.kind == kData && live && vi.state == Connected:
		vi.held, vi.holding = a.payload, true
		vi.deliver()
	case a.kind == kData:
		l.ack <- struct{}{} // no VI takes it: let the reader read on
	case vi == nil && a.kind == kHello && !l.hello:
		l.hello = true
		n.hello(l, a.payload)
	case !live:
		// Anything else from a peer before its HELLO is answered, or on a
		// connection its VI has left: a crossing's loser, a failed dial.
		l.conn.Close()
	case a.kind == kClose && vi.state == Connected:
		vi.drop()
		vi.state = Closed
	case vi.state != Connecting:
		// A handshake answer for a VI that no longer waits for one.
	case a.kind == kAccept && len(a.payload) >= 4:
		vi.connect(l, binary.LittleEndian.Uint32(a.payload))
	case a.kind == kBusy:
		vi.drop() // the peer's own dial carries the connection; it is on its way
	case a.kind == kReject:
		vi.fail(ErrRejected)
	}
}

// hello takes an inbound connection's HELLO. A VI already dialing or
// connected under the same pair settles it at once (join); otherwise it
// waits as a pending request.
func (n *Node) hello(l *link, p []byte) {
	if len(p) < 12 {
		l.conn.Close()
		return
	}
	req := &PeerRequest{From: string(p[12:]), Disc: binary.LittleEndian.Uint64(p), l: l, remoteVi: binary.LittleEndian.Uint32(p[8:])}
	for _, vi := range n.vis {
		if (vi.state == Connecting || vi.state == Connected) && vi.disc == req.Disc && vi.remote == req.From {
			n.join(req, vi)
			return
		}
	}
	n.pending = append(n.pending, req)
}

// join settles req onto vi, which is Idle, or Connecting or Connected under
// req's pair. It holds the one crossing-dial rule: when both ends dial each
// other under one pair, the connection the smaller address dialed survives.
// req's connection is taken when vi is Idle, or Connecting and req's end has
// the smaller address; otherwise it is answered kBusy, the peer's VI comes up
// over vi's own connection, and join returns ErrBadState.
func (n *Node) join(req *PeerRequest, vi *VI) error {
	if vi.state != Idle && (vi.state != Connecting || req.From > n.addr) {
		writeFrame(req.l.conn, kBusy, nil)
		req.l.conn.Close()
		return fmt.Errorf("%w: %s's dial loses to this %v VI", ErrBadState, req.From, vi.state)
	}
	vi.remote, vi.disc = req.From, req.Disc
	vi.connect(req.l, req.remoteVi)
	return writeFrame(req.l.conn, kAccept, u32(vi.id))
}

// PendingPeerRequests returns the connection requests waiting for an
// answer, in arrival order. The slice is live: answer them with Accept or
// Reject.
func (n *Node) PendingPeerRequests() []*PeerRequest { return n.pending }

// Accept answers a pending request on vi. The VI may be Idle, or Connecting
// under the request's pair — a crossing dial resolving through the request
// queue, settled by join's rule: if vi's own dial wins, the request is
// answered kBusy and Accept returns ErrBadState, leaving that dial to carry
// the connection.
func (n *Node) Accept(req *PeerRequest, vi *VI) error {
	i := slices.Index(n.pending, req)
	if i < 0 {
		return fmt.Errorf("%w: the request from %s is already answered", ErrBadState, req.From)
	}
	if vi.state != Idle && (vi.state != Connecting || vi.disc != req.Disc || vi.remote != req.From) {
		return fmt.Errorf("%w: Accept in state %v", ErrBadState, vi.state)
	}
	n.pending = slices.Delete(n.pending, i, i+1)
	return n.join(req, vi)
}

// Reject refuses a pending request and closes its connection; a request
// already answered is left alone.
func (n *Node) Reject(req *PeerRequest) {
	if i := slices.Index(n.pending, req); i >= 0 {
		n.pending = slices.Delete(n.pending, i, i+1)
		writeFrame(req.l.conn, kReject, nil)
		req.l.conn.Close()
	}
}

// ConnectPeerRequest starts connecting vi to the VI listening at remote
// under disc and returns at once. vi is Connecting until a later Poll
// connects it, or returns it to Idle because the peer rejected the request,
// the dial failed or timeout passed (ConnectPeerWait says which). Crossing
// requests — both ends dialing each other under one disc — resolve to one
// connection.
func (n *Node) ConnectPeerRequest(vi *VI, remote string, disc uint64, timeout time.Duration) error {
	if n.closed {
		return ErrClosed
	}
	if vi.state != Idle {
		return fmt.Errorf("%w: ConnectPeerRequest in state %v", ErrBadState, vi.state)
	}
	l := &link{vi: vi, ack: make(chan struct{}, 1)}
	vi.state, vi.remote, vi.disc, vi.link, vi.err = Connecting, remote, disc, l, nil
	vi.deadline = time.Now().Add(timeout)
	n.wg.Add(1)
	go n.serve(l, nil, remote, vi.deadline)
	return nil
}

// ConnectPeerWait polls until vi's connect request settles: nil once vi is
// connected, else why it failed.
func (n *Node) ConnectPeerWait(vi *VI) error {
	for n.Poll(); vi.state == Connecting; {
		n.WaitActivity(time.Until(vi.deadline))
	}
	switch vi.state {
	case Connected:
		return nil
	case Idle:
		return vi.err
	default:
		return fmt.Errorf("%w: VI %v", ErrBadState, vi.state)
	}
}

// connect puts vi up over l, abandoning any other connection it had.
func (vi *VI) connect(l *link, remoteVi uint32) {
	if vi.link != l {
		vi.drop()
	}
	l.vi, vi.link = vi, l
	vi.state, vi.remoteVi, vi.err, vi.cameUp = Connected, remoteVi, nil, true
	vi.node.stats.VisConnected++
}

// fail returns a Connecting VI to Idle, abandoning its connection, and
// records why.
func (vi *VI) fail(err error) {
	vi.drop()
	vi.state, vi.err = Idle, err
}

// drop abandons the VI's connection, letting its reader past a frame the VI
// held.
func (vi *VI) drop() {
	l := vi.link
	if l == nil {
		return
	}
	if vi.holding {
		vi.held, vi.holding = nil, false
		l.ack <- struct{}{}
	}
	if l.conn != nil {
		l.conn.Close()
	}
	vi.link = nil
}

// deliver puts a held data frame into the oldest posted buffer and lets the
// connection's reader go on.
func (vi *VI) deliver() {
	if !vi.holding || len(vi.recvQ) == 0 {
		return
	}
	buf := vi.recvQ[0]
	vi.recvQ = vi.recvQ[1:]
	vi.done = append(vi.done, completion{buf, copy(buf, vi.held)})
	vi.usedRx = true
	vi.node.stats.MsgsRecv++
	vi.node.stats.BytesRecv += int64(len(vi.held))
	vi.held, vi.holding = nil, false
	vi.link.ack <- struct{}{}
}

// State returns the VI's connection state.
func (vi *VI) State() ViState { return vi.state }

// ID returns the VI id, unique within its node.
func (vi *VI) ID() uint32 { return vi.id }

// PostRecv posts a receive buffer. A message that arrives before any buffer
// is posted waits for one, holding its connection's later frames back.
func (vi *VI) PostRecv(buf []byte) error {
	switch vi.state {
	case Idle, Connecting, Connected:
		vi.recvQ = append(vi.recvQ, buf)
		vi.deliver()
		return nil
	default:
		return fmt.Errorf("%w: PostRecv in state %v", ErrBadState, vi.state)
	}
}

// PostSend transmits data on the VI. A send posted to an unconnected VI is
// *discarded* (VIA semantics) and reported as such. The frame is written on
// the caller's goroutine, which waits while the peer's TCP window is full:
// the peer reads on past a data frame only once its owner has a posted
// buffer for it.
func (vi *VI) PostSend(data []byte) (SendStatus, error) {
	n := vi.node
	if vi.state != Connected {
		n.stats.DiscardedSends++
		if vi.state == Errored || vi.state == Closed {
			return Discarded, fmt.Errorf("%w: send in state %v", ErrBadState, vi.state)
		}
		return Discarded, nil
	}
	vi.usedTx = true
	n.stats.MsgsSent++
	n.stats.BytesSent += int64(len(data))
	if err := writeFrame(vi.link.conn, kData, data); err != nil {
		return Discarded, err
	}
	return Sent, nil
}

// received pops the oldest completed receive. With none there, err says why
// none can come: the connection broke or the VI closed.
func (vi *VI) received() (c completion, ok bool, err error) {
	if len(vi.done) > 0 {
		c, vi.done = vi.done[0], vi.done[1:]
		return c, true, nil
	}
	switch vi.state {
	case Errored:
		return c, false, vi.err
	case Closed:
		return c, false, ErrClosed
	default:
		return c, false, nil
	}
}

// RecvWait polls the node until a receive completes or the timeout elapses,
// and returns the filled buffer and the message length.
func (vi *VI) RecvWait(timeout time.Duration) ([]byte, int, error) {
	n := vi.node
	deadline := time.Now().Add(timeout)
	for n.Poll(); ; n.WaitActivity(time.Until(deadline)) {
		if c, ok, err := vi.received(); ok || err != nil {
			return c.buf, c.n, err
		}
		if !time.Now().Before(deadline) {
			return nil, 0, ErrTimeout
		}
	}
}

// Close disconnects the VI, notifying the peer.
func (vi *VI) Close() {
	if vi.state == Closed {
		return
	}
	if vi.state == Connected {
		writeFrame(vi.link.conn, kClose, nil)
	}
	vi.drop()
	vi.state = Closed
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
