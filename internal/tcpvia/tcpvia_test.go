package tcpvia

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

const tmo = 5 * time.Second

func newNode(t *testing.T) *Node {
	t.Helper()
	n, err := Listen(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// own runs f on a goroutine of its own, the owner meanwhile of whatever f
// drives; the channel yields f's error once ownership is back.
func own(f func() error) <-chan error {
	done := make(chan error, 1)
	go func() { done <- f() }()
	return done
}

// pollUntil polls n until cond holds, for up to tmo.
func pollUntil(n *Node, cond func() bool) bool {
	deadline := time.Now().Add(tmo)
	for n.Poll(); !cond(); n.WaitActivity(time.Until(deadline)) {
		if !time.Now().Before(deadline) {
			return false
		}
	}
	return true
}

// waitRequest polls n until a connection request is pending and returns the
// first.
func waitRequest(n *Node) (*PeerRequest, error) {
	if !pollUntil(n, func() bool { return len(n.PendingPeerRequests()) > 0 }) {
		return nil, ErrTimeout
	}
	return n.PendingPeerRequests()[0], nil
}

func createVis(t *testing.T, nodes ...*Node) []*VI {
	t.Helper()
	vis := make([]*VI, len(nodes))
	for i, n := range nodes {
		var err error
		if vis[i], err = n.CreateVi(); err != nil {
			t.Fatal(err)
		}
	}
	return vis
}

// connectNodes wires a VI pair between two nodes: a dials, b accepts on a
// goroutine of its own.
func connectNodes(t *testing.T, a, b *Node, disc uint64) (*VI, *VI) {
	t.Helper()
	vis := createVis(t, a, b)
	accepted := own(func() error {
		req, err := waitRequest(b)
		if err != nil {
			return err
		}
		return b.Accept(req, vis[1])
	})
	if err := a.ConnectPeerRequest(vis[0], b.Addr(), disc, tmo); err != nil {
		t.Fatal(err)
	}
	if err := a.ConnectPeerWait(vis[0]); err != nil {
		t.Fatal(err)
	}
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	return vis[0], vis[1]
}

// transfer sends one message from src to dst and receives it.
func transfer(t *testing.T, src, dst *VI, msg string) {
	t.Helper()
	if err := dst.PostRecv(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if st, err := src.PostSend([]byte(msg)); err != nil || st != Sent {
		t.Fatalf("send: %v %v", st, err)
	}
	buf, ln, err := dst.RecvWait(tmo)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:ln]) != msg {
		t.Fatalf("got %q, want %q", buf[:ln], msg)
	}
}

func TestConnectAndTransfer(t *testing.T) {
	a, b := newNode(t), newNode(t)
	viA, viB := connectNodes(t, a, b, 77)
	if viA.State() != Connected || viB.State() != Connected {
		t.Fatalf("states: %v %v", viA.State(), viB.State())
	}
	transfer(t, viA, viB, "over tcp")
}

func TestSendOnUnconnectedDiscarded(t *testing.T) {
	a := newNode(t)
	vi := createVis(t, a)[0]
	st, err := vi.PostSend([]byte("lost"))
	if err != nil || st != Discarded {
		t.Fatalf("want silent discard, got %v %v", st, err)
	}
	if a.Stats().DiscardedSends != 1 {
		t.Fatalf("DiscardedSends = %d", a.Stats().DiscardedSends)
	}
}

func TestMessageOrderPreserved(t *testing.T) {
	a, b := newNode(t), newNode(t)
	viA, viB := connectNodes(t, a, b, 2)
	const n = 100
	for i := 0; i < n; i++ {
		if err := viB.PostRecv(make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := viA.PostSend([]byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		buf, ln, err := viB.RecvWait(tmo)
		if err != nil || ln != 2 {
			t.Fatal(err)
		}
		if got := int(buf[0]) | int(buf[1])<<8; got != i {
			t.Fatalf("message %d carried %d", i, got)
		}
	}
}

func TestCrossingDialsResolveToOneConnection(t *testing.T) {
	for round := 0; round < 5; round++ {
		a, b := newNode(t), newNode(t)
		vis := createVis(t, a, b)
		viA, viB := vis[0], vis[1]
		if err := a.ConnectPeerRequest(viA, b.Addr(), 9, tmo); err != nil {
			t.Fatal(err)
		}
		if err := b.ConnectPeerRequest(viB, a.Addr(), 9, tmo); err != nil {
			t.Fatal(err)
		}
		errB := own(func() error { return b.ConnectPeerWait(viB) })
		errA := a.ConnectPeerWait(viA)
		if errB := <-errB; errA != nil || errB != nil {
			t.Fatalf("round %d: %v %v", round, errA, errB)
		}
		if viA.State() != Connected || viB.State() != Connected {
			t.Fatalf("round %d states: %v %v", round, viA.State(), viB.State())
		}
		// Data flows across whichever connection won.
		transfer(t, viA, viB, "x")
		a.Close()
		b.Close()
	}
}

// TestCrossingDialAfterRequestDequeued: one end holds the other's request,
// not yet answered, when it starts its own dial under the same pair, then
// accepts the request onto its Connecting VI — the crossing resolves through
// the request queue at one end and through the listener at the other. Both
// ends must settle on the same TCP connection. The tie-break goes by
// address, so each round runs both ways: the end holding the request has
// the smaller address (its own dial wins and Accept answers kBusy), then the
// larger (the request's connection wins).
func TestCrossingDialAfterRequestDequeued(t *testing.T) {
	for round := 0; round < 10; round++ {
		for _, holderLow := range []bool{true, false} {
			lo, hi := newNode(t), newNode(t)
			if hi.Addr() < lo.Addr() {
				lo, hi = hi, lo
			}
			holder, dialer := hi, lo
			if holderLow {
				holder, dialer = lo, hi
			}
			vis := createVis(t, holder, dialer)
			viH, viD := vis[0], vis[1]
			if err := dialer.ConnectPeerRequest(viD, holder.Addr(), 9, tmo); err != nil {
				t.Fatal(err)
			}
			dialed := own(func() error { return dialer.ConnectPeerWait(viD) })
			req, err := waitRequest(holder)
			if err != nil {
				t.Fatal(err)
			}
			if err := holder.ConnectPeerRequest(viH, dialer.Addr(), 9, tmo); err != nil {
				t.Fatal(err)
			}
			err = holder.Accept(req, viH)
			if holderLow != errors.Is(err, ErrBadState) || !holderLow && err != nil {
				t.Fatalf("round %d, holder low %v: Accept = %v", round, holderLow, err)
			}
			if err := holder.ConnectPeerWait(viH); err != nil {
				t.Fatalf("round %d, holder low %v: holder: %v", round, holderLow, err)
			}
			if err := <-dialed; err != nil {
				t.Fatalf("round %d, holder low %v: dialer: %v", round, holderLow, err)
			}
			transfer(t, viD, viH, "x")
			transfer(t, viH, viD, "y")
			lo.Close()
			hi.Close()
		}
	}
}

func TestRejectedRequest(t *testing.T) {
	a, b := newNode(t), newNode(t)
	vi := createVis(t, a)[0]
	rejected := own(func() error {
		req, err := waitRequest(b)
		if err == nil {
			b.Reject(req)
		}
		return err
	})
	if err := a.ConnectPeerRequest(vi, b.Addr(), 5, tmo); err != nil {
		t.Fatal(err)
	}
	if err := a.ConnectPeerWait(vi); err != ErrRejected {
		t.Fatalf("err = %v, want rejected", err)
	}
	if err := <-rejected; err != nil {
		t.Fatal(err)
	}
	if vi.State() != Idle {
		t.Fatalf("state after reject = %v", vi.State())
	}
}

func TestViLimit(t *testing.T) {
	n, err := Listen(Config{MaxVIs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for i := 0; i < 2; i++ {
		if _, err := n.CreateVi(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.CreateVi(); err == nil {
		t.Fatal("expected VI limit error")
	}
}

func TestCloseNotifiesPeer(t *testing.T) {
	a, b := newNode(t), newNode(t)
	viA, viB := connectNodes(t, a, b, 3)
	viA.Close()
	if !pollUntil(b, func() bool { return viB.State() == Closed }) {
		t.Fatalf("peer state = %v, want closed", viB.State())
	}
}

func TestLargeMessage(t *testing.T) {
	a, b := newNode(t), newNode(t)
	viA, viB := connectNodes(t, a, b, 4)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := viB.PostRecv(make([]byte, len(big))); err != nil {
		t.Fatal(err)
	}
	if _, err := viA.PostSend(big); err != nil {
		t.Fatal(err)
	}
	buf, ln, err := viB.RecvWait(tmo)
	if err != nil || ln != len(big) {
		t.Fatalf("recv: %d %v", ln, err)
	}
	if !bytes.Equal(buf[:ln], big) {
		t.Fatal("large message corrupted")
	}
}

// --------------------------------------------------------------------------
// Manager tests: the paper's mechanisms on a live network.

// group starts n nodes with managers under policy, each NewManager on a
// goroutine of its own (a static one returns once its mesh is up, which
// takes its peers' progress too).
func group(t *testing.T, n int, policy string) []*Manager {
	t.Helper()
	nodes := make([]*Node, n)
	peers := make([]string, n)
	for i := range nodes {
		nodes[i] = newNode(t)
		peers[i] = nodes[i].Addr()
	}
	mgrs := make([]*Manager, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mgrs[i], errs[i] = NewManager(ManagerConfig{
				Node: nodes[i], Rank: i, Peers: peers, Policy: policy,
				Timeout: tmo,
			})
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeAll(mgrs) })
	return mgrs
}

func closeAll(mgrs []*Manager) {
	for _, m := range mgrs {
		m.Close()
	}
}

// perRank runs f for every rank on a goroutine of its own, as an MPI job
// runs its ranks, and fails t with every error they return.
func perRank(t *testing.T, mgrs []*Manager, f func(i int, m *Manager) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(mgrs))
	for i, m := range mgrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(i, m)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// passRing has every rank send to its right neighbour, receive from its
// left, and close. A rank can leave its Recv before its own parked send has
// gone out; its Close, like MPI_Finalize, flushes it.
func passRing(t *testing.T, mgrs []*Manager) {
	t.Helper()
	n := len(mgrs)
	perRank(t, mgrs, func(i int, m *Manager) error {
		defer m.Close()
		if err := m.Send((i+1)%n, []byte(fmt.Sprintf("from-%d", i))); err != nil {
			return err
		}
		got, err := m.Recv((i+n-1)%n, tmo)
		if err != nil {
			return err
		}
		if want := fmt.Sprintf("from-%d", (i+n-1)%n); string(got) != want {
			return fmt.Errorf("rank %d got %q want %q", i, got, want)
		}
		return nil
	})
}

func TestStaticManagerFullMesh(t *testing.T) {
	const n = 4
	mgrs := group(t, n, "static")
	for i, m := range mgrs {
		if got := m.Connections(); got != n-1 {
			t.Errorf("rank %d connections = %d, want %d", i, got, n-1)
		}
		if vis := m.node.Stats().VisCreated; vis != n-1 {
			t.Errorf("rank %d VIs = %d, want %d", i, vis, n-1)
		}
	}
}

// TestOnDemandManagerRing is the paper's core claim on real sockets: a ring
// under on-demand creates only the two connections each rank uses.
func TestOnDemandManagerRing(t *testing.T) {
	const n = 6
	mgrs := group(t, n, "ondemand")
	passRing(t, mgrs)
	for i, m := range mgrs {
		if got := m.node.Stats().VisCreated; got > 2 {
			t.Errorf("rank %d created %d VIs, want <= 2 under on-demand", i, got)
		}
		if got := m.Connections(); got != 2 {
			t.Errorf("rank %d connections = %d, want 2", i, got)
		}
	}
}

// TestOnDemandFifoPreservesOrder: sends issued before the handshake finishes
// must arrive in order (the §3.4 FIFO on a real network). The first send
// starts the dial, the sends behind it park until a later send's poll sees
// the channel up, and the sender's Close drains whatever is still parked.
func TestOnDemandFifoPreservesOrder(t *testing.T) {
	mgrs := group(t, 2, "ondemand")
	const n = 50
	sent := own(func() error {
		defer mgrs[0].Close()
		for i := 0; i < n; i++ {
			if err := mgrs[0].Send(1, []byte{byte(i)}); err != nil { // the first send starts the dial
				return err
			}
		}
		return nil
	})
	for i := 0; i < n; i++ {
		got, err := mgrs[1].Recv(0, tmo)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("message %d carried %v", i, got)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// unreachable returns an address nobody listens at.
func unreachable(t *testing.T) string {
	t.Helper()
	gone, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := gone.Close(); err != nil {
		t.Fatal(err)
	}
	return gone.Addr().String()
}

// failedDial runs an on-demand manager whose one peer is unreachable until
// the dial behind its first (parked) send has failed, checks that its sends
// and a Recv report that failure, and returns the manager.
func failedDial(t *testing.T) *Manager {
	t.Helper()
	node := newNode(t)
	m, err := NewManager(ManagerConfig{
		Node: node, Rank: 0, Peers: []string{node.Addr(), unreachable(t)},
		Policy: "ondemand", Timeout: tmo,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	if err := m.Send(1, []byte("first")); err != nil {
		t.Fatalf("the first send parks behind the dial it starts: %v", err)
	}
	var sendErr error
	for deadline := time.Now().Add(tmo); sendErr == nil && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		sendErr = m.Send(1, []byte("later"))
	}
	if sendErr == nil {
		t.Fatal("sends to an unreachable peer kept returning nil: the parked messages are stranded silently")
	}
	if _, err := m.Recv(1, tmo); err == nil || err.Error() != sendErr.Error() {
		t.Fatalf("Recv = %v, want the dial failure Send reported (%v)", err, sendErr)
	}
	return m
}

// TestFailedDialSurfacesOnSendAndRecv: nobody listens at the peer's address,
// so the on-demand dial behind the first (parked) send fails. The failure
// must reach the caller — the next Send and a Recv return it — instead of
// every later send parking behind the stranded message and reporting success
// on a rank that never calls Recv.
func TestFailedDialSurfacesOnSendAndRecv(t *testing.T) {
	failedDial(t)
}

// TestManagerBidirectionalStress exchanges messages both ways on every pair
// under on-demand, one goroutine per rank: each sends all its messages, then
// receives all of its peers', in order per pair.
func TestManagerBidirectionalStress(t *testing.T) {
	const n = 4
	const msgs = 40
	mgrs := group(t, n, "ondemand")
	perRank(t, mgrs, func(i int, m *Manager) error {
		for k := 0; k < msgs; k++ {
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				if err := m.Send(j, []byte{byte(i), byte(j), byte(k)}); err != nil {
					return err
				}
			}
		}
		for k := 0; k < msgs; k++ {
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				got, err := m.Recv(j, tmo)
				if err != nil {
					return fmt.Errorf("recv %d<-%d: %w", i, j, err)
				}
				if len(got) != 3 || got[0] != byte(j) || got[1] != byte(i) || got[2] != byte(k) {
					return fmt.Errorf("recv %d<-%d: message %d carried %v", i, j, k, got)
				}
			}
		}
		return nil
	})
	// Full communication graph: everyone connected to everyone.
	for i, m := range mgrs {
		if got := m.Connections(); got != n-1 {
			t.Errorf("rank %d connections = %d", i, got)
		}
	}
}

func TestManagerConfigValidation(t *testing.T) {
	node := newNode(t)
	if _, err := NewManager(ManagerConfig{Node: node, Rank: 5, Peers: []string{node.Addr()}}); err == nil {
		t.Error("bad rank accepted")
	}
	if _, err := NewManager(ManagerConfig{Node: node, Rank: 0, Peers: []string{node.Addr()}, Policy: "psychic"}); err == nil {
		t.Error("bad policy accepted")
	}
}

// TestNoGoroutineLeaks: once the nodes and managers of each setup are
// closed, every goroutine they started — accept loops, per-connection dial
// and read goroutines, snapshot loops — has exited.
func TestNoGoroutineLeaks(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"bare nodes", func(t *testing.T) {
			for round := 0; round < 3; round++ {
				a, b := newNode(t), newNode(t)
				viA, viB := connectNodes(t, a, b, 11)
				transfer(t, viA, viB, "x")
				a.Close()
				b.Close()
			}
		}},
		{"static group", func(t *testing.T) {
			closeAll(group(t, 4, "static"))
		}},
		{"on-demand ring", func(t *testing.T) {
			passRing(t, group(t, 4, "ondemand"))
		}},
		{"snapshot loop", func(t *testing.T) {
			var snaps bytes.Buffer
			snapshotPair(t, &snaps)
		}},
		{"unreachable peer", func(t *testing.T) {
			failedDial(t).Close()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			tc.run(t)
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > base {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutines leaked: %d -> %d\n%s", base, got, buf[:n])
			}
		})
	}
}

func TestStateStrings(t *testing.T) {
	for _, s := range []ViState{Idle, Connecting, Connected, Errored, Closed, ViState(99)} {
		if s.String() == "" {
			t.Error("empty state string")
		}
	}
}

// TestViStateStrings pins every VI state's label; a value that is no state
// gets the numbered fallback.
func TestViStateStrings(t *testing.T) {
	for s, want := range map[ViState]string{
		Idle: "idle", Connecting: "connecting", Connected: "connected",
		Errored: "error", Closed: "closed", 99: "ViState(99)",
	} {
		if got := s.String(); got != want {
			t.Errorf("ViState(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}
