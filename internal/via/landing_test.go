package via

import (
	"bytes"
	"errors"
	"testing"
	"unsafe"

	"viampi/internal/simnet"
)

// An eager pool is a count on its VI; the port lends each message that claims
// one of the receives a descriptor of the network's stock, with a buffer as
// long as the message, for as long as the message is unread. These tests hold
// the contract at the post (what has room, what the two forms of receive
// refuse, that n posts are charged as n posts) and what lending can break: a
// buffer shorter than its message, or one the size of the pool's capacity, a
// write on behalf of a message that does not fit, a descriptor that never comes
// back, a stock that is a port's rather than the network's.

// The descriptor must not grow with its loan flag and queue link (the post
// generation shares the status word), nor a VI — one per slot of its port,
// live or free — out of its size class, nor a frame with its held flag: a slab
// of slabMax frames then fits the 5,376-byte class. A static rank of a
// 256-rank mesh reserves 255 VIs in one slab: at 112 bytes that is the
// 28,672-byte class, where 113 would take 32,768 (two work queues as slice
// headers would make it 128).
func TestDescriptorSize(t *testing.T) {
	if got := unsafe.Sizeof(Descriptor{}); got > 96 {
		t.Errorf("Descriptor is %d bytes, want at most 96", got)
	}
	if got := unsafe.Sizeof(VI{}); got > 112 {
		t.Errorf("VI is %d bytes, want at most 112", got)
	}
	if got := unsafe.Sizeof(wireMsg{}); got > 160 {
		t.Errorf("wireMsg is %d bytes, want at most 160", got)
	}
}

// landed waits for the next receive completion on vi.
func landed(t *testing.T, vi *VI) *Descriptor {
	d, err := vi.RecvWait(WaitPoll, -1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// A receive posted with PostRecv brings its Buf (Len is not read: completion
// leaves it alone, XferLen is the length that arrived) and a pool has a
// capacity; one with neither is refused at the post instead of breaking the
// connection at the first arrival, and a VI takes one form or the other.
func TestPostRecvRoomContract(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	establishDataPair(t, e,
		func(p *simnet.Proc, port *Port, vi *VI) {
			p.Sleep(50 * simnet.Microsecond) // the receives are posted
			sendStream(t, vi, 0, 1, 5)
		},
		func(p *simnet.Proc, port *Port, vi *VI) {
			for _, d := range []*Descriptor{{}, {Len: -1}, {Len: 16}} {
				if err := vi.PostRecv(d); !errors.Is(err, ErrNoRoom) || len(vi.recvQ.list()) != 0 {
					t.Errorf("PostRecv with no Buf and Len %d: error %v, %d receives queued; want ErrNoRoom and none", d.Len, err, len(vi.recvQ.list()))
				}
			}
			for _, capacity := range []int{0, -1} {
				if err := vi.PostRecvPool(2, capacity); !errors.Is(err, ErrNoRoom) {
					t.Errorf("PostRecvPool of capacity %d: error %v, want ErrNoRoom", capacity, err)
				}
			}
			if n, capacity := vi.RecvPool(); n != 0 || capacity != 0 {
				t.Errorf("the refused posts left a pool of %d × %d", n, capacity)
			}
			own := make([]byte, 16)
			backed := &Descriptor{Buf: own}
			if err := vi.PostRecv(backed); err != nil {
				t.Fatal(err)
			}
			if err := vi.PostRecvPool(1, 16); !errors.Is(err, ErrBadState) {
				t.Errorf("PostRecvPool on a VI holding a descriptor: error %v, want ErrBadState", err)
			}
			d := landed(t, vi)
			if out := port.LandingOut(); d != backed || d.Len != 0 || &d.Buf[0] != &own[0] || d.XferLen != 5 || out != 0 ||
				!bytes.Equal(own[:5], pattern(0, 5)) {
				t.Errorf("message: Len %d, XferLen %d, %d descriptors out; want the backed receive with Len 0, its own Buf, XferLen 5, 0 out",
					d.Len, d.XferLen, out)
			}
			port.ReturnLanding(d) // not the port's: stays with its owner
			if free, _ := port.Network().Landing(); len(d.Buf) != 16 || len(free) != 0 {
				t.Errorf("ReturnLanding took a descriptor that was posted with its own Buf: Buf of %d, %d free", len(d.Buf), len(free))
			}

			pooled, err := port.CreateVi()
			if err != nil {
				t.Fatal(err)
			}
			if err := pooled.PostRecvPool(3, 16); err != nil {
				t.Fatal(err)
			}
			if err := pooled.PostRecv(&Descriptor{Buf: own}); !errors.Is(err, ErrBadState) || len(pooled.recvQ.list()) != 0 {
				t.Errorf("PostRecv on a VI holding a pool: error %v, %d queued; want ErrBadState and none", err, len(pooled.recvQ.list()))
			}
			if err := pooled.PostRecvPool(1, 32); !errors.Is(err, ErrBadState) {
				t.Errorf("PostRecvPool of another capacity: error %v, want ErrBadState", err)
			}
			if err := pooled.PostRecvPool(1, 16); err != nil {
				t.Error(err)
			}
			if n, capacity := pooled.RecvPool(); n != 4 || capacity != 16 || len(pooled.recvQ.list()) != 0 {
				t.Errorf("pool of %d × %d with %d descriptors queued, want 4 × 16 and none before any message", n, capacity, len(pooled.recvQ.list()))
			}
			if free, made := port.Network().Landing(); len(free) != 0 || made != 0 || port.LandingOut() != 0 {
				t.Errorf("%d landing descriptors free of %d made and %d out before any message claimed a pool receive", len(free), made, port.LandingOut())
			}
			pooled.Close()
			if err := pooled.PostRecvPool(1, 16); !errors.Is(err, ErrBadState) {
				t.Errorf("PostRecvPool on a closed VI: error %v, want ErrBadState", err)
			}
		})
}

// A pool of n is n posts to the model: under every cost model a VI that posts
// a pool of n and one that posts n backed receives through PostRecv move their
// owner's clock, and leave the port's unflushed debt, identically — the debt
// is flushed into compute time every 2 µs, so one charge of n × PostOverhead
// would not.
func TestPoolPostChargesLikeDescriptors(t *testing.T) {
	for _, cost := range []CostModel{ClanCost(), BviaCost(), IbCost()} {
		name := cost.Name
		for _, n := range []int{1, 4, 24, 100} {
			e := newEnv(2, 1, cost)
			type reading struct {
				now  simnet.Time
				debt simnet.Duration
			}
			// Each side starts with the same odd debt, so that the flushes do
			// not fall on post boundaries by accident of a round PostOverhead.
			body := func(post func(vi *VI) error, got *[]reading) func(p *simnet.Proc, port *Port) {
				return func(p *simnet.Proc, port *Port) {
					vi, err := port.CreateVi()
					if err != nil {
						t.Error(err)
						return
					}
					port.FlushDebt()
					port.ChargeHost(137)
					for round := 0; round < 3; round++ {
						if err := post(vi); err != nil {
							t.Error(err)
						}
						*got = append(*got, reading{p.Now(), port.debt})
					}
				}
			}
			var pool, descs []reading
			e.pair(t,
				body(func(vi *VI) error { return vi.PostRecvPool(n, 64) }, &pool),
				body(func(vi *VI) error {
					for i := 0; i < n; i++ {
						if err := vi.PostRecv(&Descriptor{Buf: make([]byte, 64)}); err != nil {
							return err
						}
					}
					return nil
				}, &descs))
			for i := range pool {
				if pool[i] != descs[i] {
					t.Errorf("%s, n=%d, round %d: pool post left clock %v and debt %v, %d descriptor posts %v and %v",
						name, n, i, pool[i].now, pool[i].debt, n, descs[i].now, descs[i].debt)
				}
			}
			if last := pool[len(pool)-1]; int64(last.now)+int64(last.debt) < int64(3*n)*int64(cost.PostOverhead) {
				t.Errorf("%s, n=%d: clock %v and debt %v after 3 pools, less than %d posts' overhead", name, n, last.now, last.debt, 3*n)
			}
		}
	}
}

// Each message landed and not yet read has a descriptor and a buffer of its
// own, as long as the message; read and handed back, they are the network's
// free list, and the one handed back last is the one lent next.
func TestLandingBufferLentLIFO(t *testing.T) {
	const size, n = 64, 6
	e := newEnv(2, 1, ClanCost())
	establishDataPair(t, e,
		func(p *simnet.Proc, port *Port, vi *VI) {
			p.Sleep(50 * simnet.Microsecond) // the receives are posted
			sendStream(t, vi, 0, n, size)
			p.Sleep(simnet.Millisecond) // the first n are read and handed back
			sendStream(t, vi, n, 1, size)
		},
		func(p *simnet.Proc, port *Port, vi *VI) {
			if err := vi.PostRecvPool(n+1, size); err != nil {
				t.Fatal(err)
			}
			for vi.seqIn < n {
				port.WaitActivity(WaitPoll)
			}
			if out := port.LandingOut(); out != n || port.Stats().LandingPeak != n || vi.pool != 1 {
				t.Errorf("%d descriptors out (peak %d), %d receives unclaimed with %d messages landed and none read", out, port.Stats().LandingPeak, vi.pool, n)
			}
			var last *Descriptor
			for i := 0; i < n; i++ {
				d := landed(t, vi)
				if len(d.Buf) != size || !bytes.Equal(d.Buf, pattern(i, size)) {
					t.Fatalf("message %d: buffer of %d bytes, want %d holding the message: too short, or shared with a later one", i, len(d.Buf), size)
				}
				last = d
				port.ReturnLanding(d)
			}
			if free, _ := e.net.Landing(); len(free) != n || port.LandingOut() != 0 {
				t.Errorf("%d free, %d out after every message was read; want %d and 0", len(free), port.LandingOut(), n)
			}
			port.ReturnLanding(last) // a second return of the same loan
			if free, made := e.net.Landing(); len(free) != n || port.LandingOut() != 0 || made != n {
				t.Errorf("%d free of %d made, %d out after returning one descriptor twice; want %d of %d and 0 still", len(free), made, port.LandingOut(), n, n)
			}
			if d := landed(t, vi); d != last || !bytes.Equal(d.Buf, pattern(n, size)) {
				t.Error("the next message did not land, whole, in the descriptor handed back last")
			}
			if got, made := e.net.Landing(); port.Stats().LandingPeak != n || e.net.LandingPeak != n || made != n {
				t.Errorf("port's LandingPeak %d, network's %d, %d made (%d free) after one more message with every descriptor free, want %d each still",
					port.Stats().LandingPeak, e.net.LandingPeak, made, len(got), n)
			}
		})
}

// A message longer than a pool's capacity breaks the connection, as one longer
// than a backed receive's Buf does, and claims, lends and writes nothing: the
// free buffer it would have been given keeps every byte. So does a message
// that finds its pool exhausted.
func TestOverlongMessageLendsNothing(t *testing.T) {
	const size = 32
	for _, tc := range []struct {
		name       string
		pool, next int // receives posted, size of the second message
	}{
		{"overlong", 2, size + 1},
		{"exhausted", 1, size},
	} {
		e := newEnv(2, 1, ClanCost())
		establishDataPair(t, e,
			func(p *simnet.Proc, port *Port, vi *VI) {
				p.Sleep(50 * simnet.Microsecond)
				sendStream(t, vi, 0, 1, size)
				sendStream(t, vi, 1, 1, tc.next)
				p.Sleep(simnet.Millisecond)
			},
			func(p *simnet.Proc, port *Port, vi *VI) {
				if err := vi.PostRecvPool(tc.pool, size); err != nil {
					t.Fatal(err)
				}
				port.ReturnLanding(landed(t, vi))
				free, _ := e.net.Landing()
				buf := free[0].Buf[:cap(free[0].Buf)]
				for k := range buf {
					buf[k] = 0xA5
				}
				for vi.State() == ViConnected {
					port.WaitActivity(WaitPoll)
				}
				free, made := e.net.Landing()
				out := port.LandingOut()
				if vi.State() != ViError || int(vi.pool) != tc.pool-1 || len(vi.recvQ.list()) != 0 || out != 0 || len(free) != 1 || made != 1 {
					t.Fatalf("%s: after a %d-byte message for %d receives of %d: VI %v, %d unclaimed, %d descriptors queued, %d out, %d free of %d made; want the error state and nothing claimed or lent",
						tc.name, tc.next, tc.pool-1, size, vi.State(), vi.pool, len(vi.recvQ.list()), out, len(free), made)
				}
				for k, b := range buf {
					if b != 0xA5 {
						t.Fatalf("%s: byte %d of the free buffer was written by a message that had no receive", tc.name, k)
					}
				}
				if _, err := vi.RecvWait(WaitPoll, 0); !errors.Is(err, ErrBadState) {
					t.Errorf("%s: RecvWait on the broken VI: %v, want ErrBadState", tc.name, err)
				}
			})
		if e.net.DroppedNoDescriptor != 1 {
			t.Errorf("%s: DroppedNoDescriptor = %d, want 1", tc.name, e.net.DroppedNoDescriptor)
		}
	}
}

// A pool receive whose message is part-way in when the VI closes fails, and
// the descriptor and buffer it was lent go back to the network's stock: nobody
// reads half a message.
func TestCloseMidMessageReturnsLanding(t *testing.T) {
	const size = 8000
	cost := ClanCost()
	cost.MTU = 1000
	e := newEnv(2, 1, cost)
	establishDataPair(t, e,
		func(p *simnet.Proc, port *Port, vi *VI) {
			p.Sleep(50 * simnet.Microsecond)
			if err := vi.PostSend(&Descriptor{Buf: pattern(0, size), Len: size}); err != nil {
				t.Error(err)
			}
			p.Sleep(simnet.Millisecond)
		},
		func(p *simnet.Proc, port *Port, vi *VI) {
			if err := vi.PostRecvPool(2, size); err != nil {
				t.Fatal(err)
			}
			for vi.rxCur == nil {
				p.Sleep(100)
			}
			d := vi.rxCur
			if out := port.LandingOut(); d.XferLen >= size || len(d.Buf) != size || out != 1 || vi.pool != 1 {
				t.Fatalf("%d of %d bytes in, buffer of %d, %d out, %d unclaimed; want a message part-way into a lent buffer", d.XferLen, size, len(d.Buf), out, vi.pool)
			}
			vi.Close()
			free, _ := e.net.Landing()
			out := port.LandingOut()
			if d.Status != StatusDisconnected || len(free) != 1 || free[0] != d || out != 0 {
				t.Errorf("after Close: receive %v, %d descriptors free, %d out; want it failed and the port's again", d.Status, len(free), out)
			}
		})
}

// A message is lent a buffer as long as itself, not the pool's capacity: an
// 8-byte message on a pool of the paper's 5,048-byte receives gets 8 bytes. A
// longer message later regrows that same descriptor's buffer, and the stock
// makes nothing new. The stock is the network's, not a port's: the descriptor
// port B handed back is the one port A's next message is lent, buffer and all,
// and nothing is made for it.
func TestLandingBufferFollowsMessage(t *testing.T) {
	const capacity, short, long = 5048, 8, 1000
	e := newEnv(2, 1, ClanCost())
	var returned *Descriptor // what B handed back last, before it sent to A
	var returnedBuf *byte
	establishDataPair(t, e,
		func(p *simnet.Proc, port *Port, vi *VI) { // A
			if err := vi.PostRecvPool(1, capacity); err != nil {
				t.Fatal(err)
			}
			p.Sleep(50 * simnet.Microsecond) // B's receives are posted
			sendStream(t, vi, 0, 1, short)
			p.Sleep(simnet.Millisecond) // B has read the first and handed it back
			sendStream(t, vi, 1, 1, long)
			d := landed(t, vi)
			free, made := e.net.Landing()
			if d != returned || &d.Buf[0] != returnedBuf || len(d.Buf) != short || made != 1 || len(free) != 0 {
				t.Errorf("port A's message: %d-byte buffer, %d made, %d free, lent what B handed back: %v, in its buffer: %v; want the one descriptor B handed back, its buffer resliced to %d",
					len(d.Buf), made, len(free), d == returned, len(d.Buf) > 0 && &d.Buf[0] == returnedBuf, short)
			}
			if !bytes.Equal(d.Buf, pattern(2, short)) {
				t.Error("port A's message arrived damaged")
			}
			if port.LandingOut() != 1 || port.Stats().LandingPeak != 1 || e.net.LandingPeak != 1 {
				t.Errorf("port A has %d out (peak %d), the network's peak is %d; want 1 each", port.LandingOut(), port.Stats().LandingPeak, e.net.LandingPeak)
			}
			port.ReturnLanding(d)
		},
		func(p *simnet.Proc, port *Port, vi *VI) { // B
			if err := vi.PostRecvPool(2, capacity); err != nil {
				t.Fatal(err)
			}
			d := landed(t, vi)
			if _, made := e.net.Landing(); len(d.Buf) != short || made != 1 || !bytes.Equal(d.Buf, pattern(0, short)) {
				t.Errorf("an %d-byte message on a pool of %d-byte receives was lent %d bytes (%d descriptors made); want %d in the one descriptor",
					short, capacity, len(d.Buf), made, short)
			}
			port.ReturnLanding(d)
			again := landed(t, vi)
			if _, made := e.net.Landing(); again != d || len(again.Buf) != long || made != 1 || !bytes.Equal(again.Buf, pattern(1, long)) {
				t.Errorf("a %d-byte message after the %d-byte one: the same descriptor %v, a %d-byte buffer, %d made; want the same one regrown to %d, and 1 made",
					long, short, again == d, len(again.Buf), made, long)
			}
			returned, returnedBuf = again, &again.Buf[0]
			port.ReturnLanding(again)
			if port.LandingOut() != 0 || port.Stats().LandingPeak != 1 {
				t.Errorf("port B has %d out (peak %d) after reading both messages; want 0 (1)", port.LandingOut(), port.Stats().LandingPeak)
			}
			sendStream(t, vi, 2, 1, short)
			p.Sleep(simnet.Millisecond) // A's message is landed before the world ends
		})
}
