// Package core implements the paper's contribution: connection management
// policies for MPI over VIA.
//
// One engine makes every connection: OnDemand, the paper's mechanism. No VI
// exists until a pair first communicates. A VI endpoint is created and a
// peer-to-peer request issued from the first send (or receive targeting the
// peer); sends posted before the connection completes are parked in a
// per-channel FIFO (paper §3.4, kept by the MPI layer) and drained in order
// when it establishes;
// incoming requests are discovered by polling inside the progress engine
// (§3.3, no extra thread); a receive from MPI_ANY_SOURCE asks for a channel
// to everyone in the communicator (§3.5, applied by the MPI layer).
//
// The two static policies are that engine plus an Init schedule that builds
// the whole mesh before MPI_Init returns:
//
//   - StaticPeerToPeer asks for every channel at once, then waits: the N-1
//     handshakes progress concurrently.
//
//   - StaticClientServer reproduces MVICH's original client-server startup.
//     Each process first connects to all lower ranks in order, then answers
//     the higher ranks *in rank order regardless of arrival order*: it waits
//     for rank r's request before it asks for the channel that matches it.
//     That is the serialization the paper blames for its very slow startup
//     (Figure 8a).
//
// While Init waits it only retries and promotes its own handshakes; it never
// adopts an incoming request, so the schedule alone decides whom a rank
// answers and when. After Init every policy polls as OnDemand does.
//
// The managers only manage connections; eager-buffer setup and the actual
// draining of parked sends belong to the MPI layer and are reached through
// the PrepareChannel / OnChannelUp hooks.
package core

import (
	"fmt"
	"slices"

	"viampi/internal/obs"
	"viampi/internal/simnet"
	"viampi/internal/via"
)

// PairDisc returns the canonical VIA discriminator for a connection between
// two ranks: both sides must issue their requests under the same value.
func PairDisc(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// Channel is the per-peer connection state: one VI and the managers'
// handshake bookkeeping. The FIFO that preserves MPI's non-overtaking order
// for sends issued before the connection exists is the MPI layer's, in
// UserData: it parks while Up is false and drains in OnChannelUp.
type Channel struct {
	Rank int     // peer rank
	Vi   *via.VI // endpoint; may be mid-handshake
	Up   bool    // true once the connection is established; OnChannelUp runs next

	// Evicting marks a channel the MPI layer is gracefully draining under
	// the VI cap; it still counts toward the cap's pending frees but must
	// not be picked as a victim again.
	Evicting bool

	attempts int32 // connection attempts so far (managers' retry state, below)

	// UserData carries the MPI layer's per-channel state (credits, eager
	// buffer pool); a release keeps it for the Channel's next life.
	UserData interface{}

	// Handshake/retry state owned by the managers. Zero times mean
	// "unset": channels only exist after the t=0 bootstrap, so no real
	// stamp collides with the sentinel. An attempt always goes to the peer's
	// bootstrap address under PairDisc, so neither is stored.
	lastUsed  simnet.Time // last send/recv touch (the LRU eviction key)
	deadline  simnet.Time // current attempt times out at this instant
	retryAt   simnet.Time // backed-off reissue due at this instant
	reconnect simnet.Time // re-establishment started (EvReconnect latency)
}

// Touch stamps the channel as used now (the LRU eviction key).
func (c *Channel) Touch(now simnet.Time) { c.lastUsed = now }

// Config wires a manager to one process's VIA port and the MPI callbacks.
type Config struct {
	Rank  int
	Size  int
	Port  *via.Port
	Addrs []via.Addr   // rank -> VIA address, from the out-of-band bootstrap
	Mode  via.WaitMode // completion wait mode for blocking phases

	// CQ, when set, is the completion queue a channel's VI also reports its
	// receive completions to.
	CQ *via.CQ
	// Reserve runs once, before the first channel, when the policy knows
	// how many channels it is about to make (a static mesh: Size-1, or what
	// the port's VI limit leaves of it; an on-demand manager never calls
	// it): the MPI layer makes what n PrepareChannel calls will take in one
	// allocation a kind. It may charge no host time and register nothing.
	Reserve func(n int)
	// PrepareChannel runs as soon as the channel's VI exists (before the
	// connection completes): the MPI layer pre-posts its eager receive
	// descriptors here, so no message can ever beat the buffers.
	PrepareChannel func(ch *Channel)
	// OnChannelUp runs when the connection is established; the MPI layer
	// drains the parked sends here, in order.
	OnChannelUp func(ch *Channel)

	// MaxVIs, when positive, caps the channels an OnDemand manager keeps
	// live; crossing the cap LRU-evicts an idle channel via StartEvict.
	// The cap is soft: when nothing passes CanEvict the new connection
	// proceeds over the cap (refusing it would deadlock the transfer).
	MaxVIs int
	// CanEvict reports whether ch is quiescent enough for graceful
	// eviction; StartEvict begins the MPI-layer drain handshake. Both
	// must be set for MaxVIs to take effect.
	CanEvict   func(ch *Channel) bool
	StartEvict func(ch *Channel)

	// ConnTimeout bounds one connection attempt; 0 arms no timers (the
	// default — timing-neutral for fault-free runs). A timed-out attempt
	// is retried up to connRetryMax times with exponential backoff.
	ConnTimeout simnet.Duration

	// EpRanks optionally shares one endpoint→rank table (the inverse of
	// Addrs) across every rank's manager. When nil the manager builds its
	// own — O(Size) memory per rank, which is the difference between O(n)
	// and O(n²) job-wide footprint at 1k+ ranks.
	EpRanks map[int]int
}

func (c Config) validate() error {
	switch {
	case c.Size <= 0 || c.Rank < 0 || c.Rank >= c.Size:
		return fmt.Errorf("core: bad rank/size %d/%d", c.Rank, c.Size)
	case c.Port == nil:
		return fmt.Errorf("core: nil port")
	case len(c.Addrs) != c.Size:
		return fmt.Errorf("core: %d addrs for %d ranks", len(c.Addrs), c.Size)
	}
	return nil
}

// Manager is a connection management policy.
type Manager interface {
	// Name identifies the policy ("static-cs", "static-p2p", "ondemand").
	Name() string
	// Init establishes whatever connections the policy makes eagerly.
	// Called from MPI_Init after the address bootstrap.
	Init() error
	// Channel returns the channel to rank, creating it (and initiating a
	// connection) if there is none. The returned channel may not be Up yet.
	Channel(rank int) (*Channel, error)
	// PeekChannel returns the channel to rank or nil; it never creates.
	PeekChannel(rank int) *Channel
	// Channels returns the live channels sorted by rank: the manager's own
	// table, good until the next channel is made or released.
	Channels() []*Channel
	// Poll makes connection progress: it adopts incoming requests and
	// promotes completed handshakes to Up (invoking OnChannelUp). It is
	// called from the MPI progress engine and must never block.
	Poll()
	// PendingConnections reports channels still mid-handshake.
	PendingConnections() int
	// ReleaseChannel forgets the channel to rank after the MPI layer has
	// torn it down (evicted or disconnected); a later Channel(rank) makes
	// a fresh connection.
	ReleaseChannel(rank int)
}

// base carries the state shared by all managers. Channel state is sparse:
// the order slice, kept sorted by peer rank, is the only channel table — a
// by-rank lookup is a binary search of it, and every scan, the MPI layer's
// through Channels, walks it — so memory and scan cost are O(live channels)
// instead of O(world size). The sorted order reproduces the dense array's
// rank-ascending iteration exactly: handshake progress, promotion, eviction
// tie-breaks and finalize all see the sequence a by-rank table walk produced.
type base struct {
	cfg      Config
	order    []*Channel // live channels sorted by Rank: lookups and scans alike
	epToRank map[int]int
	everUp   []int32    // sorted ranks that ever had an established channel (reconnect metric)
	free     []*Channel // released channels, reused by newChannel
	slab     []Channel  // what reserve made, carved by takeChannel before it grows

	// pending counts the channels not yet Up: newChannel makes one, markUp
	// and the release of one that never came up each take one away. At zero
	// the handshake scans have nothing to find.
	pending int
}

func newBase(cfg Config) (*base, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	b := &base{cfg: cfg, epToRank: cfg.EpRanks}
	if b.epToRank == nil {
		b.epToRank = make(map[int]int, cfg.Size)
		for r, a := range cfg.Addrs {
			b.epToRank[a.Ep] = r
		}
	}
	return b, nil
}

// PeekChannel implements Manager.
func (b *base) PeekChannel(rank int) *Channel {
	if i, ok := b.search(rank); ok {
		return b.order[i]
	}
	return nil
}

// Channels implements Manager.
func (b *base) Channels() []*Channel { return b.order }

// search returns the index of the channel to rank in order and whether there
// is one; when there is not, the index is where it would go.
func (b *base) search(rank int) (int, bool) {
	lo, hi := 0, len(b.order)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b.order[m].Rank < rank {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(b.order) && b.order[lo].Rank == rank
}

// wasUp reports whether a channel to rank ever came up: a new one is a
// reconnect.
func (b *base) wasUp(rank int) bool {
	_, ok := slices.BinarySearch(b.everUp, int32(rank))
	return ok
}

// reserve prepares for the n channels a static policy is about to make: the
// channels are one allocation, the tables are sized once, and the layers on
// either side do the same for what they build per channel. A mesh the port
// has no room for is refused here, before any VI exists, as MVICH reads the
// NIC's MaxVI (VipQueryNic) before it creates one; at Init the room is the
// port's whole limit.
func (b *base) reserve(n int) error {
	if room := b.cfg.Port.VIRoom(); n > room {
		return fmt.Errorf("%w: %d", via.ErrTooManyVIs, room)
	}
	if n <= 0 {
		return nil
	}
	b.slab = make([]Channel, n)
	b.order = slices.Grow(b.order, n)
	b.everUp = slices.Grow(b.everUp, n)
	if b.cfg.Reserve != nil {
		b.cfg.Reserve(n)
	}
	return nil
}

// insertOrdered adds ch to the rank-sorted channel table, in its place: at
// the end when it sorts there, as a static boot's channels do.
func (b *base) insertOrdered(ch *Channel) {
	i, _ := b.search(ch.Rank)
	b.order = slices.Insert(b.order, i, ch)
}

// newChannel creates the VI for rank and runs PrepareChannel.
func (b *base) newChannel(rank int) (*Channel, error) {
	if rank < 0 || rank >= b.cfg.Size || rank == b.cfg.Rank {
		return nil, fmt.Errorf("core: bad peer rank %d (self %d, size %d)", rank, b.cfg.Rank, b.cfg.Size)
	}
	vi, err := b.cfg.Port.CreateViCQ(b.cfg.CQ)
	if err != nil {
		return nil, err
	}
	ch := b.takeChannel()
	// The one place a channel's fields are set for a new life: all but
	// UserData start from zero.
	*ch = Channel{Rank: rank, Vi: vi, UserData: ch.UserData}
	b.insertOrdered(ch)
	b.pending++
	if b.cfg.PrepareChannel != nil {
		b.cfg.PrepareChannel(ch)
	}
	return ch, nil
}

// takeChannel takes a released channel off the free list, else the next of
// reserve's slab, or grows.
func (b *base) takeChannel() *Channel {
	if ch := simnet.Pop(&b.free); ch != nil {
		return ch
	}
	if ch := simnet.Carve(&b.slab); ch != nil {
		return ch
	}
	return growChannels()
}

// growChannels grows the free list (cold path: it settles at the number of
// channels live at once).
func growChannels() *Channel { return new(Channel) }

// markUp promotes a connected channel and hands it to the MPI layer.
func (b *base) markUp(ch *Channel) {
	ch.Up = true
	b.pending--
	ch.deadline, ch.retryAt, ch.attempts = 0, 0, 0
	if ch.reconnect != 0 {
		p := b.cfg.Port
		p.Obs().Emit(obs.Event{T: p.NowNs(), Kind: obs.EvReconnect,
			Rank: int32(b.cfg.Rank), Peer: int32(ch.Rank),
			A: int64(p.Owner().Now().Sub(ch.reconnect))})
		ch.reconnect = 0
	}
	if i, ok := slices.BinarySearch(b.everUp, int32(ch.Rank)); !ok {
		if len(b.everUp) == cap(b.everUp) {
			b.growEverUp()
		}
		b.everUp = slices.Insert(b.everUp, i, int32(ch.Rank))
	}
	if b.cfg.OnChannelUp != nil {
		b.cfg.OnChannelUp(ch)
	}
}

// growEverUp makes room in everUp for more ranks (cold path: the table settles
// at the peers ever connected). The first growth makes room for eight, so
// that the few peers of an on-demand rank take one allocation.
func (b *base) growEverUp() {
	b.everUp = slices.Grow(b.everUp, max(len(b.everUp), 8))
}

// ReleaseChannel implements Manager. The Channel itself is recycled: the
// next newChannel, for any rank, may hand the same object out again.
func (b *base) ReleaseChannel(rank int) {
	i, ok := b.search(rank)
	if !ok {
		return
	}
	ch := b.order[i]
	b.order = slices.Delete(b.order, i, i+1)
	b.free = append(b.free, ch)
	if !ch.Up {
		b.pending--
	}
}

// connRetryMax caps the attempts one connection gets before it is abandoned;
// connBackoff seeds the exponential backoff between them.
const (
	connRetryMax = 8
	connBackoff  = 200 * simnet.Microsecond
)

func backoff(attempts int32) simnet.Duration {
	d := connBackoff
	if attempts > 1 {
		d <<= uint(attempts - 1)
	}
	return d
}

// issue starts (or restarts) the peer-to-peer handshake for ch — to the peer's
// bootstrap address, under the pair's discriminator — arming the attempt
// timeout when one is configured.
func (b *base) issue(ch *Channel) error {
	ch.attempts++
	if err := b.cfg.Port.ConnectPeerRequest(ch.Vi, b.cfg.Addrs[ch.Rank], PairDisc(b.cfg.Rank, ch.Rank)); err != nil {
		return err
	}
	ch.retryAt = 0
	if b.cfg.ConnTimeout > 0 {
		ch.deadline = b.cfg.Port.Owner().Now().Add(b.cfg.ConnTimeout)
		b.cfg.Port.NotifyAfter(b.cfg.ConnTimeout)
	}
	return nil
}

// scheduleRetry books a backed-off reissue for a failed attempt, or fails
// the run loudly once the attempt budget is spent — parked sends must never
// be stranded silently.
func (b *base) scheduleRetry(ch *Channel, why string) {
	if ch.attempts >= connRetryMax {
		b.cfg.Port.Owner().Sim().Failf(
			"core: rank %d→%d connection %s after %d attempts; any sends parked on it are stranded",
			b.cfg.Rank, ch.Rank, why, ch.attempts)
		return
	}
	d := backoff(ch.attempts)
	ch.deadline = 0
	ch.retryAt = b.cfg.Port.Owner().Now().Add(d)
	b.cfg.Port.NotifyAfter(d)
}

// reissue re-sends the connection request after a NACK or timeout.
func (b *base) reissue(ch *Channel) {
	p := b.cfg.Port
	p.Obs().Emit(obs.Event{T: p.NowNs(), Kind: obs.EvConnRetry,
		Rank: int32(b.cfg.Rank), Peer: int32(ch.Rank), A: int64(ch.attempts)})
	if err := b.issue(ch); err != nil {
		p.Owner().Sim().Failf("core: rank %d→%d reissue: %v", b.cfg.Rank, ch.Rank, err)
	}
}

// progressHandshakes drives retry/timeout for channels mid-handshake. A VI
// back in ViIdle with attempts on record means the peer NACKed (or a timeout
// cancelled the attempt); without this the parked sends would be stranded
// forever.
func (b *base) progressHandshakes() {
	if b.pending == 0 {
		return
	}
	now := b.cfg.Port.Owner().Now()
	for _, ch := range b.order {
		if ch.Up || ch.attempts == 0 {
			continue
		}
		switch ch.Vi.State() {
		case via.ViIdle:
			if ch.retryAt == 0 {
				b.scheduleRetry(ch, "rejected")
			} else if now.Sub(ch.retryAt) >= 0 {
				b.reissue(ch)
			}
		case via.ViConnecting:
			if ch.deadline != 0 && now.Sub(ch.deadline) >= 0 {
				// Cancel can race with a just-completed establishment;
				// losing that race leaves the VI connected, which is fine.
				if err := b.cfg.Port.CancelConnect(ch.Vi); err != nil {
					continue
				}
				b.scheduleRetry(ch, "timed out")
			}
		case via.ViConnected, via.ViError, via.ViDisconnected, via.ViClosed:
			// Connected channels are promoted by promoteConnected; dead
			// states are adopted by the MPI teardown scan, not retried here.
		}
	}
}

// promoteConnected flips channels whose handshake completed.
func (b *base) promoteConnected() {
	if b.pending == 0 {
		return
	}
	for _, ch := range b.order {
		if !ch.Up && ch.Vi.State() == via.ViConnected {
			b.markUp(ch)
		}
	}
}

func (b *base) PendingConnections() int { return b.pending }

// ---------------------------------------------------------------------------
// On-demand

// OnDemand is the paper's lazy connection manager.
type OnDemand struct{ *base }

// NewOnDemand creates the manager.
func NewOnDemand(cfg Config) (*OnDemand, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	return &OnDemand{base: b}, nil
}

// Name implements Manager.
func (m *OnDemand) Name() string { return "ondemand" }

// Init does nothing: no VI is created until a pair communicates.
func (m *OnDemand) Init() error { return nil }

// liveChannels counts existing channels and how many are mid-eviction.
func (m *OnDemand) liveChannels() (live, evicting int) {
	live = len(m.order)
	for _, ch := range m.order {
		if ch.Evicting {
			evicting++
		}
	}
	return
}

// evictForCap starts graceful evictions until the cap has room for one more
// channel, counting in-flight evictions as pending frees (the teardown
// handshake is asynchronous). The cap is soft: with no evictable victim the
// new connection proceeds over the cap rather than deadlock.
func (m *OnDemand) evictForCap() {
	if m.cfg.MaxVIs <= 0 || m.cfg.CanEvict == nil || m.cfg.StartEvict == nil {
		return
	}
	live, evicting := m.liveChannels()
	for live+1-evicting > m.cfg.MaxVIs {
		var victim *Channel
		for _, ch := range m.order {
			if !ch.Up || ch.Evicting || !m.cfg.CanEvict(ch) {
				continue
			}
			// Strict < ties break toward the lowest rank (scan order),
			// keeping victim choice deterministic.
			if victim == nil || ch.lastUsed.Sub(victim.lastUsed) < 0 {
				victim = ch
			}
		}
		if victim == nil {
			return
		}
		victim.Evicting = true
		evicting++
		p := m.cfg.Port
		p.Obs().Emit(obs.Event{T: p.NowNs(), Kind: obs.EvEvict,
			Rank: int32(m.cfg.Rank), Peer: int32(victim.Rank), A: int64(live)})
		m.cfg.StartEvict(victim)
	}
}

// Channel returns the channel to rank, lazily creating the VI and issuing
// the peer-to-peer request on first use. The caller must treat a !Up channel
// by parking its send until OnChannelUp.
func (m *OnDemand) Channel(rank int) (*Channel, error) {
	if ch := m.PeekChannel(rank); ch != nil {
		return ch, nil
	}
	m.evictForCap()
	ch, err := m.newChannel(rank)
	if err != nil {
		return nil, err
	}
	if m.wasUp(rank) {
		ch.reconnect = m.cfg.Port.Owner().Now()
	}
	if err := m.issue(ch); err != nil {
		return nil, err
	}
	// The via layer may have matched an already-arrived request instantly;
	// promotion still happens in Poll to keep ordering single-pathed.
	return ch, nil
}

// Poll adopts incoming connection requests (creating the local VI and
// issuing the matching peer request) and promotes completed handshakes.
// It runs inside the MPI progress engine: a connection request is just
// another species of non-blocking request (§3.3).
func (m *OnDemand) Poll() {
	// Snapshot: ConnectPeerRequest consumes entries from the live slice.
	for {
		reqs := m.cfg.Port.PendingPeerRequests()
		if len(reqs) == 0 {
			break
		}
		req := reqs[0]
		rank, ok := m.epToRank[req.From.Ep]
		if !ok || req.Disc != PairDisc(m.cfg.Rank, rank) {
			// issue answers a peer at its bootstrap address under the pair's
			// discriminator, and would leave any other request pending.
			m.cfg.Port.Reject(req)
			continue
		}
		if ch := m.PeekChannel(rank); ch != nil {
			if !ch.Up && ch.Vi.State() == via.ViIdle {
				// Our own attempt was NACKed (fault injection) and sits
				// between backoff retries; the peer's crossing request IS
				// the retry — match it directly instead of rejecting, or
				// both sides NACK each other forever.
				if err := m.issue(ch); err != nil {
					m.cfg.Port.Reject(req)
				}
				continue
			}
			// Otherwise a request from a rank we already have a channel
			// for is stale or mismatched (crossing requests under the
			// canonical discriminator are matched inside via; an evicted
			// peer's reconnect can also race our unfinished teardown).
			// Reject it — the peer retries with backoff.
			m.cfg.Port.Reject(req)
			continue
		}
		m.evictForCap()
		ch, err := m.newChannel(rank)
		if err != nil {
			m.cfg.Port.Reject(req)
			continue
		}
		if m.wasUp(rank) {
			ch.reconnect = m.cfg.Port.Owner().Now()
		}
		// Matches the pending incoming request immediately.
		if err := m.issue(ch); err != nil {
			m.cfg.Port.Reject(req) // consume it; never spin on a bad request
		}
	}
	m.progressHandshakes()
	m.promoteConnected()
}

// ---------------------------------------------------------------------------
// Static policies: OnDemand plus an Init schedule

// waitUp runs Init's progress until ch is up or, for a nil ch, until no
// handshake remains: rejections and timeouts are retried and completed
// handshakes promoted, but no incoming request is adopted — the schedule
// decides whom a rank answers and when.
func (b *base) waitUp(ch *Channel) {
	for {
		b.progressHandshakes()
		b.promoteConnected()
		if b.pending == 0 || ch != nil && ch.Up {
			return
		}
		b.cfg.Port.WaitActivity(b.cfg.Mode)
	}
}

// requested reports whether rank's connection request is pending at the port.
func (b *base) requested(rank int) bool {
	from, disc := b.cfg.Addrs[rank].Ep, PairDisc(b.cfg.Rank, rank)
	for _, req := range b.cfg.Port.PendingPeerRequests() {
		if req.From.Ep == from && req.Disc == disc {
			return true
		}
	}
	return false
}

// StaticPeerToPeer builds the fully-connected mesh with concurrent
// peer-to-peer handshakes during Init.
type StaticPeerToPeer struct{ OnDemand }

// NewStaticPeerToPeer creates the manager.
func NewStaticPeerToPeer(cfg Config) (*StaticPeerToPeer, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	return &StaticPeerToPeer{OnDemand{b}}, nil
}

// Name implements Manager.
func (m *StaticPeerToPeer) Name() string { return "static-p2p" }

// Init asks for all N-1 channels, then progresses the handshakes together.
func (m *StaticPeerToPeer) Init() error {
	if err := m.reserve(m.cfg.Size - 1); err != nil {
		return err
	}
	for r := 0; r < m.cfg.Size; r++ {
		if r == m.cfg.Rank {
			continue
		}
		if _, err := m.Channel(r); err != nil {
			return err
		}
	}
	m.waitUp(nil)
	return nil
}

// StaticClientServer reproduces MVICH's original serialized client-server
// startup: for each pair the lower rank is the server; servers answer
// expected peers strictly in rank order.
type StaticClientServer struct{ OnDemand }

// NewStaticClientServer creates the manager.
func NewStaticClientServer(cfg Config) (*StaticClientServer, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	return &StaticClientServer{OnDemand{b}}, nil
}

// Name implements Manager.
func (m *StaticClientServer) Name() string { return "static-cs" }

// Init connects as client to all lower ranks (in order), then serves all
// higher ranks strictly in rank order: it waits for rank r's request, and
// the channel it then asks for consumes that request. The in-order answers
// are the serialization measured in Figure 8a.
func (m *StaticClientServer) Init() error {
	if err := m.reserve(m.cfg.Size - 1); err != nil {
		return err
	}
	me := m.cfg.Rank
	for r := 0; r < m.cfg.Size; r++ {
		if r == me {
			continue
		}
		for r > me && !m.requested(r) {
			m.cfg.Port.WaitActivity(m.cfg.Mode)
		}
		ch, err := m.Channel(r)
		if err != nil {
			return fmt.Errorf("core: rank %d connect to %d: %w", me, r, err)
		}
		m.waitUp(ch)
	}
	return nil
}

// NewManager builds a manager by policy name.
func NewManager(policy string, cfg Config) (Manager, error) {
	switch policy {
	case "static-cs":
		return NewStaticClientServer(cfg)
	case "static-p2p":
		return NewStaticPeerToPeer(cfg)
	case "ondemand":
		return NewOnDemand(cfg)
	default:
		return nil, fmt.Errorf("core: unknown connection policy %q", policy)
	}
}
