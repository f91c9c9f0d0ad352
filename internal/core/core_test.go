package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"viampi/internal/simnet"
	"viampi/internal/via"
)

// runRanks spawns n processes, each with a VIA port, waits for the address
// exchange, and runs body per rank. It returns the network for inspection.
func runRanks(t *testing.T, n int, cost via.CostModel,
	body func(p *simnet.Proc, port *via.Port, rank int, addrs []via.Addr)) *via.Network {
	t.Helper()
	s := simnet.New(1)
	s.SetDeadline(simnet.Time(60 * simnet.Second))
	fcfg := via.ClanFabric(n, 1)
	if cost.Name == "bvia" {
		fcfg = via.BviaFabric(n, 1)
	}
	net := via.NewNetwork(s, fcfg, cost)
	addrs := make([]via.Addr, n)
	ready := 0
	for r := 0; r < n; r++ {
		r := r
		s.Spawn(fmt.Sprintf("rank%d", r), 0, func(p *simnet.Proc) {
			port, err := net.Open(p)
			if err != nil {
				t.Error(err)
				return
			}
			addrs[r] = port.Addr()
			ready++
			for ready < n {
				p.Sleep(simnet.Microsecond)
			}
			body(p, port, r, addrs)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return net
}

// policies names the three connection policies NewManager builds.
var policies = []string{"static-cs", "static-p2p", "ondemand"}

func managerConfig(rank, n int, port *via.Port, addrs []via.Addr) Config {
	return Config{Rank: rank, Size: n, Port: port, Addrs: addrs, Mode: via.WaitPoll}
}

func TestPairDisc(t *testing.T) {
	if PairDisc(3, 7) != PairDisc(7, 3) {
		t.Fatal("PairDisc not symmetric")
	}
	if PairDisc(0, 1) == PairDisc(0, 2) {
		t.Fatal("PairDisc collides")
	}
	f := func(a, b, c, d uint16) bool {
		if (a == c && b == d) || (a == d && b == c) {
			return true
		}
		if a == b || c == d {
			return true
		}
		return PairDisc(int(a), int(b)) != PairDisc(int(c), int(d))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func testStaticFullMesh(t *testing.T, policy string) {
	const n = 6
	net := runRanks(t, n, via.ClanCost(), func(p *simnet.Proc, port *via.Port, rank int, addrs []via.Addr) {
		mgr, err := NewManager(policy, managerConfig(rank, n, port, addrs))
		if err != nil {
			t.Error(err)
			return
		}
		if err := mgr.Init(); err != nil {
			t.Errorf("rank %d init: %v", rank, err)
			return
		}
		if mgr.PendingConnections() != 0 {
			t.Errorf("rank %d: %d pending after init", rank, mgr.PendingConnections())
		}
		for r := 0; r < n; r++ {
			if r == rank {
				continue
			}
			ch, err := mgr.Channel(r)
			if err != nil || !ch.Up || ch.Vi.State() != via.ViConnected {
				t.Errorf("rank %d channel to %d: err=%v up=%v", rank, r, err, ch != nil && ch.Up)
			}
		}
	})
	for _, port := range net.Ports() {
		if got := port.Stats().VisCreated; got != n-1 {
			t.Errorf("VisCreated = %d, want %d", got, n-1)
		}
	}
}

func TestStaticPeerToPeerFullMesh(t *testing.T)   { testStaticFullMesh(t, "static-p2p") }
func TestStaticClientServerFullMesh(t *testing.T) { testStaticFullMesh(t, "static-cs") }

func TestOnDemandInitCreatesNothing(t *testing.T) {
	const n = 4
	net := runRanks(t, n, via.ClanCost(), func(p *simnet.Proc, port *via.Port, rank int, addrs []via.Addr) {
		mgr, err := NewManager("ondemand", managerConfig(rank, n, port, addrs))
		if err != nil {
			t.Error(err)
			return
		}
		if mgr.Name() != "ondemand" {
			t.Errorf("name = %q", mgr.Name())
		}
		if err := mgr.Init(); err != nil {
			t.Error(err)
		}
	})
	for _, port := range net.Ports() {
		if got := port.Stats().VisCreated; got != 0 {
			t.Errorf("VisCreated = %d after on-demand init, want 0", got)
		}
	}
}

// TestOnDemandLazyConnectAndFifoDrain exercises the full §3.4 path: rank 0
// parks three sends before the connection exists; they must drain in order
// once it establishes, and rank 1 must receive them in order. The FIFO is
// the caller's (the MPI layer keeps it in UserData): the test holds its own.
func TestOnDemandLazyConnectAndFifoDrain(t *testing.T) {
	const n = 2
	var drained []int
	received := []byte{}
	runRanks(t, n, via.ClanCost(), func(p *simnet.Proc, port *via.Port, rank int, addrs []via.Addr) {
		var parked []int
		cfg := managerConfig(rank, n, port, addrs)
		cfg.PrepareChannel = func(ch *Channel) {
			for i := 0; i < 8; i++ {
				if err := ch.Vi.PostRecv(&via.Descriptor{Buf: make([]byte, 64)}); err != nil {
					t.Error(err)
				}
			}
		}
		cfg.OnChannelUp = func(ch *Channel) {
			for _, v := range parked {
				drained = append(drained, v)
				if err := ch.Vi.PostSend(&via.Descriptor{Buf: []byte{byte(v)}, Len: 1}); err != nil {
					t.Error(err)
				}
			}
			parked = nil
		}
		mgr, err := NewOnDemand(cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if err := mgr.Init(); err != nil {
			t.Error(err)
			return
		}
		if rank == 0 {
			ch, err := mgr.Channel(1)
			if err != nil {
				t.Error(err)
				return
			}
			if ch.Up {
				t.Error("channel up before handshake possible")
			}
			for i := 1; i <= 3; i++ {
				parked = append(parked, i)
			}
			for !ch.Up {
				mgr.Poll()
				if ch.Up {
					break
				}
				port.WaitActivity(via.WaitPoll)
			}
			if len(parked) != 0 {
				t.Errorf("%d sends still parked after Up", len(parked))
			}
			p.Sleep(simnet.D(2e6)) // let deliveries finish
		} else {
			// Passive side: discover the connection purely via Poll.
			var ch *Channel
			for ch == nil || !ch.Up {
				mgr.Poll()
				ch = mgr.PeekChannel(0)
				if ch != nil && ch.Up {
					break
				}
				port.WaitActivity(via.WaitPoll)
			}
			for len(received) < 3 {
				if d := ch.Vi.RecvDone(); d != nil {
					received = append(received, d.Buf[0])
				} else {
					port.WaitActivity(via.WaitPoll)
				}
			}
		}
	})
	if len(drained) != 3 || drained[0] != 1 || drained[1] != 2 || drained[2] != 3 {
		t.Fatalf("drained = %v, want [1 2 3]", drained)
	}
	if string(received) != "\x01\x02\x03" {
		t.Fatalf("received = %v, want [1 2 3]", received)
	}
}

func TestOnDemandPassivePrepareBeforeData(t *testing.T) {
	// The passive side's PrepareChannel must run (pre-posting receives)
	// before any data can arrive, or the via layer would kill the
	// connection with DroppedNoDescriptor.
	const n = 2
	net := runRanks(t, n, via.ClanCost(), func(p *simnet.Proc, port *via.Port, rank int, addrs []via.Addr) {
		cfg := managerConfig(rank, n, port, addrs)
		prepared := false
		cfg.PrepareChannel = func(ch *Channel) {
			prepared = true
			for i := 0; i < 4; i++ {
				if err := ch.Vi.PostRecv(&via.Descriptor{Buf: make([]byte, 64)}); err != nil {
					t.Error(err)
				}
			}
		}
		cfg.OnChannelUp = func(ch *Channel) {
			if !prepared {
				t.Error("OnChannelUp before PrepareChannel")
			}
		}
		mgr, err := NewOnDemand(cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if rank == 0 {
			ch, err := mgr.Channel(1)
			if err != nil {
				t.Error(err)
				return
			}
			for !ch.Up {
				mgr.Poll()
				if ch.Up {
					break
				}
				port.WaitActivity(via.WaitPoll)
			}
			if err := ch.Vi.PostSend(&via.Descriptor{Buf: []byte("x"), Len: 1}); err != nil {
				t.Error(err)
			}
			p.Sleep(simnet.D(2e6))
		} else {
			end := p.Now().Add(simnet.D(5e6))
			for p.Now() < end {
				mgr.Poll()
				port.WaitActivityTimeout(via.WaitPoll, 100*simnet.Microsecond)
			}
			ch := mgr.PeekChannel(0)
			if ch == nil || !ch.Up {
				t.Error("passive side never adopted the connection")
			}
		}
	})
	if net.DroppedNoDescriptor != 0 {
		t.Fatalf("DroppedNoDescriptor = %d, want 0", net.DroppedNoDescriptor)
	}
}

// TestOnDemandRingUsesTwoVIs is the Table 2 "Ring" row: a ring exchange
// under on-demand creates exactly 2 VIs per process.
func TestOnDemandRingUsesTwoVIs(t *testing.T) {
	const n = 8
	net := runRanks(t, n, via.ClanCost(), func(p *simnet.Proc, port *via.Port, rank int, addrs []via.Addr) {
		parked := map[int][][]byte{} // by peer rank
		cfg := managerConfig(rank, n, port, addrs)
		cfg.PrepareChannel = func(ch *Channel) {
			for i := 0; i < 4; i++ {
				if err := ch.Vi.PostRecv(&via.Descriptor{Buf: make([]byte, 64)}); err != nil {
					t.Error(err)
				}
			}
		}
		cfg.OnChannelUp = func(ch *Channel) {
			for _, b := range parked[ch.Rank] {
				if err := ch.Vi.PostSend(&via.Descriptor{Buf: b, Len: len(b)}); err != nil {
					t.Error(err)
				}
			}
			delete(parked, ch.Rank)
		}
		mgr, err := NewOnDemand(cfg)
		if err != nil {
			t.Error(err)
			return
		}
		right := (rank + 1) % n
		if _, err := mgr.Channel(right); err != nil {
			t.Error(err)
			return
		}
		parked[right] = append(parked[right], []byte{byte(rank)})
		// Progress until we have received from the left neighbour and our
		// send has drained.
		var gotLeft bool
		for !gotLeft || len(parked) > 0 {
			mgr.Poll()
			if lch := mgr.PeekChannel((rank + n - 1) % n); lch != nil && lch.Up {
				if d := lch.Vi.RecvDone(); d != nil {
					if d.Buf[0] != byte((rank+n-1)%n) {
						t.Errorf("rank %d got %d from left", rank, d.Buf[0])
					}
					gotLeft = true
				}
			}
			if !gotLeft || len(parked) > 0 {
				port.WaitActivityTimeout(via.WaitPoll, 50*simnet.Microsecond)
			}
		}
		p.Sleep(simnet.D(3e6)) // let stragglers finish before ports go away
	})
	for r, port := range net.Ports() {
		if got := port.Stats().VisCreated; got != 2 {
			t.Errorf("rank %d: VisCreated = %d, want 2", r, got)
		}
		if got := port.VisUsed(); got != 2 {
			t.Errorf("rank %d: VisUsed = %d, want 2", r, got)
		}
	}
}

// TestInitTimeOrdering checks the Figure 8 shape: on-demand init is cheapest,
// static peer-to-peer next, serialized client-server worst.
func TestInitTimeOrdering(t *testing.T) {
	const n = 8
	times := map[string]simnet.Duration{}
	for _, policy := range policies {
		policy := policy
		var max simnet.Duration
		runRanks(t, n, via.ClanCost(), func(p *simnet.Proc, port *via.Port, rank int, addrs []via.Addr) {
			mgr, err := NewManager(policy, managerConfig(rank, n, port, addrs))
			if err != nil {
				t.Error(err)
				return
			}
			start := p.Now()
			if err := mgr.Init(); err != nil {
				t.Errorf("%s rank %d: %v", policy, rank, err)
				return
			}
			if d := p.Now().Sub(start); d > max {
				max = d
			}
			p.Sleep(simnet.Second) // keep port alive for stragglers
		})
		times[policy] = max
	}
	if !(times["ondemand"] < times["static-p2p"]) {
		t.Errorf("ondemand init %v not < static-p2p %v", times["ondemand"], times["static-p2p"])
	}
	if !(times["static-p2p"] < times["static-cs"]) {
		t.Errorf("static-p2p init %v not < static-cs %v", times["static-p2p"], times["static-cs"])
	}
}

func TestStaticManagerNames(t *testing.T) {
	const n = 2
	runRanks(t, n, via.ClanCost(), func(p *simnet.Proc, port *via.Port, rank int, addrs []via.Addr) {
		cs, err := NewStaticClientServer(managerConfig(rank, n, port, addrs))
		if err != nil {
			t.Error(err)
			return
		}
		if cs.Name() != "static-cs" {
			t.Error("static-cs surface")
		}
		p2p, err := NewStaticPeerToPeer(managerConfig(rank, n, port, addrs))
		if err != nil {
			t.Error(err)
			return
		}
		if p2p.Name() != "static-p2p" {
			t.Error("static-p2p surface")
		}
	})
}

func TestConfigValidation(t *testing.T) {
	_, err := NewOnDemand(Config{Rank: 0, Size: 0})
	if err == nil {
		t.Fatal("expected error for size 0")
	}
	_, err = NewManager("bogus", Config{})
	if err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

// Property (Table 2 core claim): under on-demand, the number of VIs a rank
// creates equals its number of distinct communication partners.
func TestPropertyOnDemandVIsEqualPartners(t *testing.T) {
	f := func(edges []uint8) bool {
		const n = 6
		// Build a random undirected communication set.
		want := make([]map[int]bool, n)
		for i := range want {
			want[i] = map[int]bool{}
		}
		var pairs [][2]int
		for _, e := range edges {
			a, b := int(e>>4)%n, int(e&0xf)%n
			if a == b || want[a][b] {
				continue
			}
			want[a][b], want[b][a] = true, true
			pairs = append(pairs, [2]int{a, b})
		}
		okRes := true
		net := runRanks(t, n, via.ClanCost(), func(p *simnet.Proc, port *via.Port, rank int, addrs []via.Addr) {
			parked := map[int]int{} // sends parked, by peer rank
			cfg := managerConfig(rank, n, port, addrs)
			cfg.PrepareChannel = func(ch *Channel) {
				for i := 0; i < 4; i++ {
					if err := ch.Vi.PostRecv(&via.Descriptor{Buf: make([]byte, 16)}); err != nil {
						okRes = false
					}
				}
			}
			cfg.OnChannelUp = func(ch *Channel) {
				for range parked[ch.Rank] {
					if err := ch.Vi.PostSend(&via.Descriptor{Buf: []byte{1}, Len: 1}); err != nil {
						okRes = false
					}
				}
				delete(parked, ch.Rank)
			}
			mgr, err := NewOnDemand(cfg)
			if err != nil {
				okRes = false
				return
			}
			// The lower rank of each pair initiates.
			for _, pr := range pairs {
				if pr[0] == rank {
					ch, err := mgr.Channel(pr[1])
					if err != nil {
						okRes = false
						return
					}
					parked[ch.Rank]++
				}
			}
			// Progress for a fixed window of virtual time.
			end := p.Now().Add(simnet.D(20e6))
			for p.Now() < end {
				mgr.Poll()
				port.WaitActivityTimeout(via.WaitPoll, 200*simnet.Microsecond)
			}
		})
		for r, port := range net.Ports() {
			if port.Stats().VisCreated != len(want[r]) {
				return false
			}
		}
		return okRes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// baseOf reaches the state the three managers share.
func baseOf(t *testing.T, m Manager) *base {
	switch m := m.(type) {
	case *StaticPeerToPeer:
		return m.base
	case *StaticClientServer:
		return m.base
	case *OnDemand:
		return m.base
	}
	t.Fatalf("no base in %T", m)
	return nil
}

// PendingConnections is a count kept at the three places it can move; at
// every one of them, under every policy, it must equal a walk over the
// channels counting those not up — the scan it replaced — and at zero the
// handshake scans must have nothing left to find.
func TestPendingCountMatchesScan(t *testing.T) {
	const n = 5
	for _, policy := range policies {
		checks := 0
		runRanks(t, n, via.ClanCost(), func(p *simnet.Proc, port *via.Port, rank int, addrs []via.Addr) {
			var b *base
			check := func(*Channel) {
				want := 0
				for _, ch := range b.order {
					if !ch.Up {
						want++
					}
				}
				if got := b.PendingConnections(); got != want {
					t.Errorf("%s rank %d: PendingConnections %d, %d channels not up", policy, rank, got, want)
				}
				checks++
			}
			cfg := managerConfig(rank, n, port, addrs)
			cfg.PrepareChannel, cfg.OnChannelUp = check, check
			mgr, err := NewManager(policy, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			b = baseOf(t, mgr)
			if err := mgr.Init(); err != nil {
				t.Error(err)
				return
			}
			for r := 0; r < n; r++ {
				if r == rank {
					continue
				}
				if _, err := mgr.Channel(r); err != nil {
					t.Error(err)
					return
				}
			}
			for mgr.PendingConnections() > 0 {
				mgr.Poll()
				if mgr.PendingConnections() > 0 {
					port.WaitActivity(via.WaitPoll)
				}
			}
			check(nil)
			// Releasing a channel that is up leaves the count alone; one
			// released before it came up leaves the count with it.
			if policy == "ondemand" && rank == 0 {
				mgr.PeekChannel(1).Vi.Close()
				mgr.ReleaseChannel(1)
				check(nil)
				ch, err := mgr.Channel(1)
				if err != nil || mgr.PendingConnections() != 1 {
					t.Errorf("reconnect: err %v, %d pending, want 1", err, mgr.PendingConnections())
					return
				}
				ch.Vi.Close()
				mgr.ReleaseChannel(1)
				check(nil)
			}
		})
		if checks < 2*n*(n-1) {
			t.Errorf("%s: %d checks, want one per channel made and one per channel up at least", policy, checks)
		}
	}
}

// The channel table is order alone: a by-rank lookup is a binary search of
// it, and the reconnect check one of the sorted ranks that were ever up. Rank
// 0 runs an on-demand manager under a two-VI cap through seeded sequences of
// connects and releases while the other ranks accept whatever it asks for and
// now and then connect to it first; after every step, PeekChannel must find
// what a linear scan of order finds, and the reconnect check must agree with
// the channels OnChannelUp has seen.
func TestLookupsMatchScans(t *testing.T) {
	const (
		n     = 6
		steps = 60
	)
	var checks, evictions, adoptions, reconnects int
	for seed := int64(1); seed <= 4; seed++ {
		done := false
		runRanks(t, n, via.ClanCost(), func(p *simnet.Proc, port *via.Port, rank int, addrs []via.Addr) {
			rng := rand.New(rand.NewSource(seed*n + int64(rank)))
			if rank != 0 {
				respond(p, port, rng, addrs[0], PairDisc(0, rank), &done)
				return
			}
			var b *base
			wasUp := map[int]bool{}
			release := func(ch *Channel) {
				ch.Vi.Close()
				b.ReleaseChannel(ch.Rank)
			}
			check := func() bool {
				checks++
				for r := 0; r < n; r++ {
					var want *Channel
					for _, ch := range b.order {
						if ch.Rank == r {
							want = ch
						}
					}
					if got := b.PeekChannel(r); got != want {
						t.Errorf("seed %d: PeekChannel(%d) = %p, a scan of order finds %p", seed, r, got, want)
						return false
					}
					if got := b.wasUp(r); got != wasUp[r] {
						t.Errorf("seed %d: reconnect check for rank %d reads %v, want %v", seed, r, got, wasUp[r])
						return false
					}
				}
				return true
			}
			inChannel := false
			cfg := managerConfig(rank, n, port, addrs)
			cfg.MaxVIs = 2
			cfg.CanEvict = func(*Channel) bool { return true }
			cfg.StartEvict = func(ch *Channel) { evictions++; release(ch) }
			cfg.PrepareChannel = func(*Channel) {
				if !inChannel {
					adoptions++
				}
			}
			cfg.OnChannelUp = func(ch *Channel) { wasUp[ch.Rank] = true }
			mgr, err := NewOnDemand(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			b = mgr.base
			for i := 0; i < steps; i++ {
				if peer := rng.Intn(n); peer != 0 {
					if mgr.PeekChannel(peer) == nil && wasUp[peer] {
						reconnects++
					}
					inChannel = true
					_, err := mgr.Channel(peer)
					inChannel = false
					if err != nil {
						t.Error(err)
						return
					}
				} else if len(b.order) > 0 {
					release(b.order[rng.Intn(len(b.order))])
				}
				if !check() {
					break
				}
				mgr.Poll()
				if !check() {
					break
				}
				port.WaitActivityTimeout(via.WaitPoll, 10*simnet.Microsecond)
			}
			done = true
		})
	}
	if evictions == 0 || adoptions == 0 || reconnects == 0 {
		t.Errorf("%d evictions, %d adopted requests, %d reconnects: every kind of step must happen", evictions, adoptions, reconnects)
	}
	t.Logf("%d checks; %d evictions, %d adopted requests, %d reconnects", checks, evictions, adoptions, reconnects)
}

// respond plays a peer that accepts every connection request, closes a VI
// once its connection is gone or refused, and now and then connects to rank 0
// first, until done.
func respond(p *simnet.Proc, port *via.Port, rng *rand.Rand, rank0 via.Addr, disc uint64, done *bool) {
	var vis []*via.VI
	open := func() *via.VI {
		vi, err := port.CreateVi()
		if err != nil {
			p.Sim().Failf("responder: %v", err)
			return nil
		}
		vis = append(vis, vi)
		return vi
	}
	for !*done {
		for reqs := port.PendingPeerRequests(); len(reqs) > 0; reqs = port.PendingPeerRequests() {
			if vi := open(); vi == nil || port.ConnectPeerRequest(vi, reqs[0].From, reqs[0].Disc) != nil {
				return
			}
		}
		if rng.Intn(20) == 0 {
			if vi := open(); vi == nil || port.ConnectPeerRequest(vi, rank0, disc) != nil {
				return
			}
		}
		live := vis[:0]
		for _, vi := range vis {
			switch vi.State() {
			case via.ViIdle, via.ViDisconnected:
				vi.Close()
			default:
				live = append(live, vi)
			}
		}
		vis = live
		port.WaitActivityTimeout(via.WaitPoll, 10*simnet.Microsecond)
	}
}

// A static manager reserves for its whole mesh, and refuses a mesh the port
// has no VIs left for before it reserves or creates anything — here, or
// through Config.Reserve above. A mesh that just fits is reserved whole.
func TestReserveStopsAtViLimit(t *testing.T) {
	const (
		n     = 6
		limit = 3
	)
	cost := via.ClanCost()
	cost.MaxVIsPerPort = limit
	for _, policy := range []string{"static-p2p", "static-cs"} {
		s := simnet.New(1)
		net := via.NewNetwork(s, via.ClanFabric(n, 1), cost)
		addrs := make([]via.Addr, n)
		for r := range addrs {
			addrs[r] = via.Addr{Ep: r}
		}
		s.Spawn("rank0", 0, func(p *simnet.Proc) {
			port, err := net.Open(p)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := port.CreateVi(); err != nil { // one of the three is taken
				t.Error(err)
				return
			}
			reserved := -1
			cfg := managerConfig(0, n, port, addrs)
			cfg.Reserve = func(k int) { reserved = k }
			mgr, err := NewManager(policy, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			b := baseOf(t, mgr)
			err = b.reserve(n - 1)
			if want := fmt.Sprintf("via: VI limit for this port exceeded: %d", limit-1); !errors.Is(err, via.ErrTooManyVIs) || err.Error() != want {
				t.Errorf("%s: reserving %d channels with room for %d: error %v, want %q", policy, n-1, limit-1, err, want)
			}
			if reserved != -1 || len(b.slab) != 0 || port.VIRoom() != limit-1 || port.Stats().VisCreated != 1 {
				t.Errorf("%s: a refused mesh reserved %d above and %d channels here, and left room %d after %d VIs created; want nothing reserved and the one VI",
					policy, reserved, len(b.slab), port.VIRoom(), port.Stats().VisCreated)
			}
			if err := b.reserve(limit - 1); err != nil || reserved != limit-1 || len(b.slab) != limit-1 {
				t.Errorf("%s: reserving the %d VIs the port has left: error %v, reserved %d above, %d channels here", policy, limit-1, err, reserved, len(b.slab))
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// A static rank of a 256-rank mesh reserves its 255 channels in one slab: at
// 72 bytes a channel that is the 18,432-byte size class, where 73 would take
// 19,072 (a send FIFO back in Channel as a slice header makes it 96).
func TestChannelSize(t *testing.T) {
	if got := unsafe.Sizeof(Channel{}); got > 72 {
		t.Errorf("Channel is %d bytes, want at most 72", got)
	}
}
