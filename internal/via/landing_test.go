package via

import (
	"bytes"
	"errors"
	"testing"
	"unsafe"

	"viampi/internal/simnet"
)

// An eager pool is a count on its VI; the port lends a descriptor, with a
// buffer of the pool's capacity, to each message that claims one of the
// receives, for as long as the message is unread. These tests hold the
// contract at the post (what has room, what the two forms of receive refuse,
// that n posts are charged as n posts) and what lending can break: a buffer
// shorter than the pool's capacity, a write on behalf of a message that does
// not fit, a descriptor that never comes back.

// The descriptor word must not grow with the loan flag, nor a VI — one per
// slot of its port, live or free — out of its size class, nor a frame with its
// held flag: a slab of slabMax frames then fits the 5,376-byte class. A static
// rank of a 256-rank mesh reserves 255 VIs in one slab: at 128 bytes that is
// the 32,768-byte class, where 129 would take 40,960.
func TestDescriptorSize(t *testing.T) {
	if got := unsafe.Sizeof(Descriptor{}); got > 96 {
		t.Errorf("Descriptor is %d bytes, want at most 96", got)
	}
	if got := unsafe.Sizeof(VI{}); got > 128 {
		t.Errorf("VI is %d bytes, want at most 128", got)
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
				if err := vi.PostRecv(d); !errors.Is(err, ErrNoRoom) || len(vi.recvQ) != 0 {
					t.Errorf("PostRecv with no Buf and Len %d: error %v, %d receives queued; want ErrNoRoom and none", d.Len, err, len(vi.recvQ))
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
			if _, out := port.Landing(); d != backed || d.Len != 0 || &d.Buf[0] != &own[0] || d.XferLen != 5 || out != 0 ||
				!bytes.Equal(own[:5], pattern(0, 5)) {
				t.Errorf("message: Len %d, XferLen %d, %d descriptors out; want the backed receive with Len 0, its own Buf, XferLen 5, 0 out",
					d.Len, d.XferLen, out)
			}
			port.ReturnLanding(d) // not the port's: stays with its owner
			if free, _ := port.Landing(); len(d.Buf) != 16 || len(free) != 0 {
				t.Errorf("ReturnLanding took a descriptor that was posted with its own Buf: Buf of %d, %d free", len(d.Buf), len(free))
			}

			pooled, err := port.CreateVi()
			if err != nil {
				t.Fatal(err)
			}
			if err := pooled.PostRecvPool(3, 16); err != nil {
				t.Fatal(err)
			}
			if err := pooled.PostRecv(&Descriptor{Buf: own}); !errors.Is(err, ErrBadState) || len(pooled.recvQ) != 0 {
				t.Errorf("PostRecv on a VI holding a pool: error %v, %d queued; want ErrBadState and none", err, len(pooled.recvQ))
			}
			if err := pooled.PostRecvPool(1, 32); !errors.Is(err, ErrBadState) {
				t.Errorf("PostRecvPool of another capacity: error %v, want ErrBadState", err)
			}
			if err := pooled.PostRecvPool(1, 16); err != nil {
				t.Error(err)
			}
			if n, capacity := pooled.RecvPool(); n != 4 || capacity != 16 || len(pooled.recvQ) != 0 {
				t.Errorf("pool of %d × %d with %d descriptors queued, want 4 × 16 and none before any message", n, capacity, len(pooled.recvQ))
			}
			if free, out := port.Landing(); len(free) != 0 || out != 0 {
				t.Errorf("%d landing descriptors free and %d out before any message claimed a pool receive", len(free), out)
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
// own, as long as the pool's capacity; read and handed back, they are the
// port's free list, and the one handed back last is the one lent next.
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
			if _, out := port.Landing(); out != n || port.Stats().LandingPeak != n || vi.pool != 1 {
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
			if free, out := port.Landing(); len(free) != n || out != 0 {
				t.Errorf("%d free, %d out after every message was read; want %d and 0", len(free), out, n)
			}
			port.ReturnLanding(last) // a second return of the same loan
			if free, out := port.Landing(); len(free) != n || out != 0 {
				t.Errorf("%d free, %d out after returning one descriptor twice; want %d and 0 still", len(free), out, n)
			}
			if d := landed(t, vi); d != last || !bytes.Equal(d.Buf, pattern(n, size)) {
				t.Error("the next message did not land, whole, in the descriptor handed back last")
			}
			if got := port.Stats().LandingPeak; got != n {
				t.Errorf("LandingPeak %d after one more message with every descriptor free, want %d still", got, n)
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
				free, _ := port.Landing()
				buf := free[0].Buf[:cap(free[0].Buf)]
				for k := range buf {
					buf[k] = 0xA5
				}
				for vi.State() == ViConnected {
					port.WaitActivity(WaitPoll)
				}
				free, out := port.Landing()
				if vi.State() != ViError || int(vi.pool) != tc.pool-1 || len(vi.recvQ) != 0 || out != 0 || len(free) != 1 {
					t.Fatalf("%s: after a %d-byte message for %d receives of %d: VI %v, %d unclaimed, %d descriptors queued, %d out, %d free; want the error state and nothing claimed or lent",
						tc.name, tc.next, tc.pool-1, size, vi.State(), vi.pool, len(vi.recvQ), out, len(free))
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
// the descriptor and buffer it was lent go back to the port: nobody reads half
// a message.
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
			if _, out := port.Landing(); d.XferLen >= size || len(d.Buf) != size || out != 1 || vi.pool != 1 {
				t.Fatalf("%d of %d bytes in, buffer of %d, %d out, %d unclaimed; want a message part-way into a lent buffer", d.XferLen, size, len(d.Buf), out, vi.pool)
			}
			vi.Close()
			free, out := port.Landing()
			if d.Status != StatusDisconnected || len(free) != 1 || free[0] != d || out != 0 {
				t.Errorf("after Close: receive %v, %d descriptors free, %d out; want it failed and the port's again", d.Status, len(free), out)
			}
		})
}
