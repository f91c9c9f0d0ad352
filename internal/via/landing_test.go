package via

import (
	"bytes"
	"errors"
	"testing"
	"unsafe"

	"viampi/internal/simnet"
)

// A receive posted without a buffer is lent one by the port for as long as a
// message is in it; these tests hold the contract at the post (what Len means
// for a receive, and that a receive with no room is refused there) and what
// lending can break: a buffer shorter than the receive's capacity, a write on
// behalf of a message that does not fit, a buffer that never comes back.

// The descriptor word must not grow with the loan flag: a static mesh holds
// ranks × peers × credits of them.
func TestDescriptorSize(t *testing.T) {
	if got := unsafe.Sizeof(Descriptor{}); got > 96 {
		t.Errorf("Descriptor is %d bytes, want at most 96", got)
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

// Len is a receive's capacity when it is posted unbacked and 0 when it brings
// its Buf, completion leaves it alone (XferLen is the length that arrived),
// and a receive with neither is refused at the post instead of breaking the
// connection at the first arrival.
func TestPostRecvRoomContract(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	establishDataPair(t, e,
		func(p *simnet.Proc, port *Port, vi *VI) {
			p.Sleep(50 * simnet.Microsecond) // the receives are posted
			sendStream(t, vi, 0, 2, 5)
		},
		func(p *simnet.Proc, port *Port, vi *VI) {
			for _, d := range []*Descriptor{{}, {Len: -1}} {
				if err := vi.PostRecv(d); !errors.Is(err, ErrNoRoom) || len(vi.recvQ) != 0 {
					t.Errorf("PostRecv with no Buf and Len %d: error %v, %d receives queued; want ErrNoRoom and none", d.Len, err, len(vi.recvQ))
				}
			}
			own := make([]byte, 16)
			unbacked, backed := &Descriptor{Len: 16}, &Descriptor{Buf: own}
			for _, d := range []*Descriptor{unbacked, backed} {
				if err := vi.PostRecv(d); err != nil {
					t.Fatal(err)
				}
			}
			if unbacked.Buf != nil {
				t.Error("an unbacked receive was lent a buffer at the post, before any message")
			}

			d := landed(t, vi)
			if _, out := port.Landing(); d != unbacked || d.Len != 16 || len(d.Buf) != 16 || d.XferLen != 5 || out != 1 ||
				!bytes.Equal(d.Buf[:d.XferLen], pattern(0, 5)) {
				t.Errorf("first message: Len %d, buffer of %d, XferLen %d, %d buffers out; want the unbacked receive with Len 16, a buffer of 16, XferLen 5, 1 out",
					d.Len, len(d.Buf), d.XferLen, out)
			}
			port.ReturnLanding(d)
			if free, out := port.Landing(); d.Buf != nil || d.Len != 16 || len(free) != 1 || out != 0 {
				t.Errorf("after the return: Buf %v, Len %d, %d free, %d out; want no Buf, Len 16, 1 free, 0 out", d.Buf, d.Len, len(free), out)
			}

			d = landed(t, vi)
			if _, out := port.Landing(); d != backed || d.Len != 0 || &d.Buf[0] != &own[0] || d.XferLen != 5 || out != 0 ||
				!bytes.Equal(own[:5], pattern(1, 5)) {
				t.Errorf("second message: Len %d, XferLen %d, %d buffers out; want the backed receive with Len 0, its own Buf, XferLen 5, 0 out",
					d.Len, d.XferLen, out)
			}
			port.ReturnLanding(d) // not the port's: stays with the receive
			if free, _ := port.Landing(); len(d.Buf) != 16 || len(free) != 1 {
				t.Errorf("ReturnLanding took a buffer the receive brought itself: Buf of %d, %d free", len(d.Buf), len(free))
			}
		})
}

// Each message landed and not yet read has a buffer of its own, as long as its
// receive's Len; read and handed back, the buffers are the port's free list,
// and the one handed back last is the one lent next.
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
			for i := 0; i <= n; i++ {
				if err := vi.PostRecv(&Descriptor{Len: size}); err != nil {
					t.Fatal(err)
				}
			}
			for vi.seqIn < n {
				port.WaitActivity(WaitPoll)
			}
			if _, out := port.Landing(); out != n || port.Stats().LandingPeak != n {
				t.Errorf("%d buffers out (peak %d) with %d messages landed and none read", out, port.Stats().LandingPeak, n)
			}
			var last *byte
			for i := 0; i < n; i++ {
				d := landed(t, vi)
				if len(d.Buf) != size || !bytes.Equal(d.Buf, pattern(i, size)) {
					t.Fatalf("message %d: buffer of %d bytes, want %d holding the message: too short, or shared with a later one", i, len(d.Buf), size)
				}
				last = &d.Buf[0]
				port.ReturnLanding(d)
			}
			if free, out := port.Landing(); len(free) != n || out != 0 {
				t.Errorf("%d free, %d out after every message was read; want %d and 0", len(free), out, n)
			}
			if d := landed(t, vi); &d.Buf[0] != last || !bytes.Equal(d.Buf, pattern(n, size)) {
				t.Error("the next message did not land, whole, in the buffer handed back last")
			}
			if got := port.Stats().LandingPeak; got != n {
				t.Errorf("LandingPeak %d after one more message with every buffer free, want %d still", got, n)
			}
		})
}

// A message longer than an unbacked receive's Len breaks the connection, as
// one longer than a backed receive's Buf does, and lends and writes nothing:
// the free buffer it would have been given keeps every byte.
func TestOverlongMessageLendsNothing(t *testing.T) {
	const size = 32
	e := newEnv(2, 1, ClanCost())
	establishDataPair(t, e,
		func(p *simnet.Proc, port *Port, vi *VI) {
			p.Sleep(50 * simnet.Microsecond)
			sendStream(t, vi, 0, 1, size)
			sendStream(t, vi, 1, 1, size+1)
			p.Sleep(simnet.Millisecond)
		},
		func(p *simnet.Proc, port *Port, vi *VI) {
			d, next := &Descriptor{Len: size}, &Descriptor{Len: size}
			for _, d := range []*Descriptor{d, next} {
				if err := vi.PostRecv(d); err != nil {
					t.Fatal(err)
				}
			}
			port.ReturnLanding(landed(t, vi))
			free, _ := port.Landing()
			for k := range free[0][:cap(free[0])] {
				free[0][k] = 0xA5
			}
			for vi.State() == ViConnected {
				port.WaitActivity(WaitPoll)
			}
			free, out := port.Landing()
			if vi.State() != ViError || next.Status != StatusErrorState || next.Buf != nil || out != 0 || len(free) != 1 {
				t.Fatalf("after a %d-byte message for a receive of %d: VI %v, receive %v with a buffer of %d, %d out, %d free; want the error state and nothing lent",
					size+1, size, vi.State(), next.Status, len(next.Buf), out, len(free))
			}
			for k, b := range free[0][:cap(free[0])] {
				if b != 0xA5 {
					t.Fatalf("byte %d of the free buffer was written by a message that did not fit", k)
				}
			}
		})
	if e.net.DroppedNoDescriptor != 1 {
		t.Errorf("DroppedNoDescriptor = %d, want 1", e.net.DroppedNoDescriptor)
	}
}

// A receive whose message is part-way in when the VI closes fails, and the
// buffer it was lent goes back to the port with it: the descriptor reaches the
// owner's free list holding none.
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
			var free []*Descriptor
			vi.RecycleRecvs(&free)
			d := &Descriptor{Len: size}
			if err := vi.PostRecv(d); err != nil {
				t.Fatal(err)
			}
			for vi.rxCur == nil {
				p.Sleep(100)
			}
			if _, out := port.Landing(); vi.rxGot >= size || len(d.Buf) != size || out != 1 {
				t.Fatalf("%d of %d bytes in, buffer of %d, %d out; want a message part-way into a lent buffer", vi.rxGot, size, len(d.Buf), out)
			}
			vi.Close()
			buffers, out := port.Landing()
			if d.Status != StatusDisconnected || d.Buf != nil || len(free) != 1 || free[0] != d || len(buffers) != 1 || out != 0 {
				t.Errorf("after Close: receive %v with a buffer of %d, %d descriptors handed back, %d buffers free, %d out; want it failed and handed back bare, its buffer free",
					d.Status, len(d.Buf), len(free), len(buffers), out)
			}
		})
}
