package via

import (
	"bytes"
	"testing"

	"viampi/internal/simnet"
)

// An out-of-band message rides a frame off the Network's free list, as a NIC
// post does, and RecvOob hands that frame back at the next call. These tests
// hold the two things that can break: an allocation per message creeping
// back, and a frame freed while its caller still reads the data.

// recvOob polls port until an out-of-band message is queued and returns it.
func recvOob(port *Port) (Addr, []byte) {
	for {
		if from, data, ok := port.RecvOob(); ok {
			return from, data
		}
		port.WaitActivity(WaitPoll)
	}
}

// Once the free list holds what a round trip needs, a SendOob and the RecvOob
// of its echo allocate nothing, on either side.
func TestOobRoundTripAllocs(t *testing.T) {
	e := newEnv(2, 1, ClanCost())
	addrs := make([]Addr, 2)
	allocs := -1.0
	e.pair(t,
		func(p *simnet.Proc, port *Port) {
			addrs[0] = port.Addr()
			p.Sleep(10 * simnet.Microsecond)
			msg := []byte{'h', 1, 2, 3, 4}
			roundTrip := func() {
				port.SendOob(addrs[1], msg)
				if _, data := recvOob(port); !bytes.Equal(data, msg) {
					t.Errorf("echo %v, want %v", data, msg)
				}
			}
			for range 3 {
				roundTrip()
			}
			allocs = testing.AllocsPerRun(100, roundTrip)
			port.SendOob(addrs[1], []byte{'q'})
		},
		func(p *simnet.Proc, port *Port) {
			addrs[1] = port.Addr()
			p.Sleep(10 * simnet.Microsecond)
			for {
				_, data := recvOob(port)
				if data[0] == 'q' {
					return
				}
				port.SendOob(addrs[0], data) // copied before the next RecvOob frees the frame
			}
		})
	if allocs != 0 {
		t.Errorf("%v allocations per out-of-band round trip, want 0", allocs)
	}
}

// Rank 0 gathers one message from every other rank only once they are all
// queued, and between deliveries overwrites the buffer of every frame on the
// free list: a frame released before its caller is done with the data would
// hand that caller garbage. Each sender overwrites its buffer as soon as
// SendOob returns, so the frame must own its copy from then.
func TestOobPayloadsSurviveRecycling(t *testing.T) {
	const n = 9
	e := newEnv(n, 1, ClanCost())
	e.sim.SetDeadline(simnet.Time(10 * simnet.Second))
	addrs := make([]Addr, n)
	payload := func(i int) []byte { return pattern(i, 1+4*i) }
	for i := range n {
		e.sim.Spawn("oob", 0, func(p *simnet.Proc) {
			port, err := e.net.Open(p)
			if err != nil {
				t.Error(err)
				return
			}
			addrs[i] = port.Addr()
			p.Sleep(10 * simnet.Microsecond)
			if i > 0 {
				buf := payload(port.Addr().Ep)
				port.SendOob(addrs[0], buf)
				for k := range buf {
					buf[k] = 0xEE
				}
				return
			}
			p.Sleep(simnet.Millisecond) // every message is queued by now
			seen := make([]bool, n)
			for range n - 1 {
				from, data := recvOob(port)
				for m := e.net.free; m != nil; m = m.next {
					buf := m.buf[:cap(m.buf)]
					for k := range buf {
						buf[k] = 0xEE
					}
				}
				if want := payload(from.Ep); !bytes.Equal(data, want) {
					t.Errorf("message from %d reads %v, want %v", from.Ep, data, want)
				}
				seen[from.Ep] = true
			}
			for k := 1; k < n; k++ {
				if !seen[k] {
					t.Errorf("no message from %d", k)
				}
			}
			if _, _, ok := port.RecvOob(); ok {
				t.Error("a message beyond the n-1 sent")
			}
		})
	}
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
}
