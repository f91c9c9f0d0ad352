package tcpvia

import (
	"bytes"
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

// connectNodes wires a VI pair between two nodes: a dials, b accepts.
func connectNodes(t *testing.T, a, b *Node, disc uint64) (*VI, *VI) {
	t.Helper()
	viA, err := a.CreateVi()
	if err != nil {
		t.Fatal(err)
	}
	viB, err := b.CreateVi()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		req, err := b.WaitRequest(disc, tmo)
		if err != nil {
			done <- err
			return
		}
		done <- b.Accept(req, viB)
	}()
	if err := a.ConnectPeer(viA, b.Addr(), disc, tmo); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return viA, viB
}

func TestConnectAndTransfer(t *testing.T) {
	a, b := newNode(t), newNode(t)
	viA, viB := connectNodes(t, a, b, 77)
	if viA.State() != Connected || viB.State() != Connected {
		t.Fatalf("states: %v %v", viA.State(), viB.State())
	}
	if err := viB.PostRecv(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	st, err := viA.PostSend([]byte("over tcp"))
	if err != nil || st != Sent {
		t.Fatalf("send: %v %v", st, err)
	}
	buf, ln, err := viB.RecvWait(tmo)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:ln]) != "over tcp" {
		t.Fatalf("got %q", buf[:ln])
	}
}

func TestSendOnUnconnectedDiscarded(t *testing.T) {
	a := newNode(t)
	vi, err := a.CreateVi()
	if err != nil {
		t.Fatal(err)
	}
	st, err := vi.PostSend([]byte("lost"))
	if err != nil || st != Discarded {
		t.Fatalf("want silent discard, got %v %v", st, err)
	}
	if a.Stats().DiscardedSends != 1 {
		t.Fatalf("DiscardedSends = %d", a.Stats().DiscardedSends)
	}
}

func TestRecvWithoutDescriptorBreaksConnection(t *testing.T) {
	// VIA-strict mode: no descriptor means a broken connection.
	a, err := Listen(Config{StrictDescriptors: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := Listen(Config{StrictDescriptors: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	viA, viB := connectNodes(t, a, b, 1)
	if _, err := viA.PostSend([]byte("boom")); err != nil {
		t.Fatal(err)
	}
	// viB has no posted receive: its reader must error the VI.
	deadline := time.Now().Add(tmo)
	for viB.State() != Errored && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if viB.State() != Errored {
		t.Fatalf("state = %v, want errored", viB.State())
	}
	if _, _, err := viB.RecvWait(100 * time.Millisecond); err != ErrNoDescriptor {
		t.Fatalf("RecvWait err = %v", err)
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
		viA, err := a.CreateVi()
		if err != nil {
			t.Fatal(err)
		}
		viB, err := b.CreateVi()
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		wg.Add(2)
		go func() { defer wg.Done(); errs[0] = a.ConnectPeer(viA, b.Addr(), 9, tmo) }()
		go func() { defer wg.Done(); errs[1] = b.ConnectPeer(viB, a.Addr(), 9, tmo) }()
		wg.Wait()
		if errs[0] != nil || errs[1] != nil {
			t.Fatalf("round %d: %v %v", round, errs[0], errs[1])
		}
		if viA.State() != Connected || viB.State() != Connected {
			t.Fatalf("round %d states: %v %v", round, viA.State(), viB.State())
		}
		// Data flows across whichever connection won.
		if err := viB.PostRecv(make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
		if _, err := viA.PostSend([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := viB.RecvWait(tmo); err != nil {
			t.Fatalf("round %d recv: %v", round, err)
		}
		a.Close()
		b.Close()
	}
}

// TestCrossingDialAfterRequestDequeued covers the crossing the adopt loop
// produces: B has already taken A's request off the pending queue when B's
// own dial to A starts, so B accepts the request onto a Connecting VI while
// A's listener sees B's dial. Both ends must settle on the same TCP
// connection, whichever way the address tie-break falls.
func TestCrossingDialAfterRequestDequeued(t *testing.T) {
	for round := 0; round < 100; round++ {
		a, b := newNode(t), newNode(t)
		viA, err := a.CreateVi()
		if err != nil {
			t.Fatal(err)
		}
		viB, err := b.CreateVi()
		if err != nil {
			t.Fatal(err)
		}
		errA, errB := make(chan error, 1), make(chan error, 1)
		go func() { errA <- a.ConnectPeer(viA, b.Addr(), 9, tmo) }()
		req, err := b.WaitRequest(9, tmo)
		if err != nil {
			t.Fatal(err)
		}
		go func() { errB <- b.ConnectPeer(viB, a.Addr(), 9, tmo) }()
		for viB.State() == Idle {
			runtime.Gosched() // until B's dial is in flight
		}
		// Accept may lose to B's own dial (the tie-break, or the dial simply
		// finishing first); the dial then carries the connection, and the
		// request is answered the way the adopt loop answers it.
		if err := b.Accept(req, viB); err != nil {
			req.Reject()
		}
		if ea, eb := <-errA, <-errB; ea != nil || eb != nil {
			t.Fatalf("round %d: %v %v", round, ea, eb)
		}
		for _, dir := range [][2]*VI{{viA, viB}, {viB, viA}} {
			if err := dir[1].PostRecv(make([]byte, 16)); err != nil {
				t.Fatal(err)
			}
			if _, err := dir[0].PostSend([]byte("x")); err != nil {
				t.Fatalf("round %d send: %v", round, err)
			}
			if _, _, err := dir[1].RecvWait(tmo); err != nil {
				t.Fatalf("round %d recv: %v", round, err)
			}
		}
		a.Close()
		b.Close()
	}
}

func TestRejectedRequest(t *testing.T) {
	a, b := newNode(t), newNode(t)
	vi, err := a.CreateVi()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		req, err := b.WaitRequest(5, tmo)
		if err == nil {
			req.Reject()
		}
	}()
	if err := a.ConnectPeer(vi, b.Addr(), 5, tmo); err != ErrRejected {
		t.Fatalf("err = %v, want rejected", err)
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
	deadline := time.Now().Add(tmo)
	for viB.State() != Closed && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if viB.State() != Closed {
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

// group starts n nodes with managers under policy.
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
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := NewManager(ManagerConfig{
				Node: nodes[i], Rank: i, Peers: peers, Policy: policy,
				Timeout: tmo,
			})
			mgrs[i], errs[i] = m, err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("manager %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, m := range mgrs {
			m.Close()
		}
	})
	return mgrs
}

// waitUp blocks until m's channel to peer is marked up. A message can arrive
// before the goroutine that dialed (or adopted) its connection has finished
// the bookkeeping — FIFO drain, counters, log events — so tests that inspect
// that bookkeeping wait for it instead of assuming Recv implies it.
func waitUp(t *testing.T, m *Manager, peer int) {
	t.Helper()
	select {
	case <-m.channel(peer).upped:
	case <-time.After(tmo):
		t.Fatalf("rank %d: channel to %d never came up", m.rank, peer)
	}
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
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, m := range mgrs {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Send((i+1)%n, []byte(fmt.Sprintf("from-%d", i))); err != nil {
				errs[i] = err
				return
			}
			got, err := m.Recv((i+n-1)%n, tmo)
			if err != nil {
				errs[i] = err
				return
			}
			want := fmt.Sprintf("from-%d", (i+n-1)%n)
			if string(got) != want {
				errs[i] = fmt.Errorf("rank %d got %q want %q", i, got, want)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range mgrs {
		if got := m.node.Stats().VisCreated; got > 2 {
			t.Errorf("rank %d created %d VIs, want <= 2 under on-demand", i, got)
		}
		waitUp(t, m, (i+1)%n)
		waitUp(t, m, (i+n-1)%n)
		if got := m.Connections(); got != 2 {
			t.Errorf("rank %d connections = %d, want 2", i, got)
		}
	}
}

// TestOnDemandFifoPreservesOrder: sends issued before the handshake finishes
// must arrive in order (the §3.4 FIFO on a real network).
// TestAdoptLoopSurvivesIdleTimeouts: an on-demand manager whose adopt loop
// has sat through several empty wait intervals must still answer the next
// dial. (The loop used to treat the interval's ErrTimeout like ErrClosed and
// exit, leaving every later request unanswered in the node's pending queue.)
func TestAdoptLoopSurvivesIdleTimeouts(t *testing.T) {
	old := adoptWait
	adoptWait = 5 * time.Millisecond
	// Registered before group's cleanup, so it runs after every manager has
	// closed and its adopt loop — the only reader — has exited.
	t.Cleanup(func() { adoptWait = old })
	mgrs := group(t, 2, "ondemand")

	time.Sleep(10 * adoptWait) // idle long enough for at least two timeouts

	if err := mgrs[0].Send(1, []byte("late")); err != nil {
		t.Fatal(err)
	}
	waitUp(t, mgrs[0], 1)
	if got, err := mgrs[1].Recv(0, tmo); err != nil || string(got) != "late" {
		t.Fatalf("recv: %q %v", got, err)
	}
}

func TestOnDemandFifoPreservesOrder(t *testing.T) {
	mgrs := group(t, 2, "ondemand")
	const n = 50
	go func() {
		for i := 0; i < n; i++ {
			mgrs[0].Send(1, []byte{byte(i)}) // first send triggers the dial
		}
	}()
	for i := 0; i < n; i++ {
		got, err := mgrs[1].Recv(0, tmo)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("message %d carried %v", i, got)
		}
	}
}

// TestManagerBidirectionalStress exchanges messages both ways on every pair
// concurrently under on-demand.
// TestFailedDialSurfacesOnSendAndRecv: nobody listens at the peer's address,
// so the on-demand dial behind the first (parked) send fails. The failure
// must reach the caller — the next Send and a Recv return it — instead of
// every later send parking behind the stranded message and reporting success
// on a rank that never calls Recv.
func TestFailedDialSurfacesOnSendAndRecv(t *testing.T) {
	node := newNode(t)
	gone, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	unreachable := gone.Addr().String()
	if err := gone.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(ManagerConfig{
		Node: node, Rank: 0, Peers: []string{node.Addr(), unreachable},
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
}

func TestManagerBidirectionalStress(t *testing.T) {
	const n = 4
	const msgs = 40
	mgrs := group(t, n, "ondemand")
	var wg sync.WaitGroup
	errCh := make(chan error, n*n*2)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			i, j := i, j
			wg.Add(2)
			go func() {
				defer wg.Done()
				for k := 0; k < msgs; k++ {
					if err := mgrs[i].Send(j, []byte{byte(i), byte(j), byte(k)}); err != nil {
						errCh <- err
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for k := 0; k < msgs; k++ {
					got, err := mgrs[j].Recv(i, tmo)
					if err != nil {
						errCh <- fmt.Errorf("recv %d<-%d: %w", j, i, err)
						return
					}
					if len(got) != 3 || got[0] != byte(i) || got[2] != byte(k) {
						errCh <- fmt.Errorf("bad payload %v", got)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
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

// TestNoGoroutineLeaks: after closing every node, all readers, acceptors
// and adopt loops must have exited.
func TestNoGoroutineLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		a, err := Listen(Config{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Listen(Config{})
		if err != nil {
			t.Fatal(err)
		}
		viA, viB := connectNodes(t, a, b, 11)
		if err := viB.PostRecv(make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
		if _, err := viA.PostSend([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := viB.RecvWait(tmo); err != nil {
			t.Fatal(err)
		}
		a.Close()
		b.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base+2 {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines leaked: %d -> %d\n%s", base, got, buf[:n])
	}
}

func TestStateStrings(t *testing.T) {
	for _, s := range []ViState{Idle, Connecting, Connected, Errored, Closed, ViState(99)} {
		if s.String() == "" {
			t.Error("empty state string")
		}
	}
}
