package mpi

import (
	"fmt"
	"testing"

	"viampi/internal/simnet"
	"viampi/internal/via"
)

// A poll skips a walk over the live channels when a counter says it would
// find nothing. This test redoes every walk the old way at the moment the
// decision is made — any VI the peer closed, the channels not yet up, the
// send descriptors queued over all VIs, whether the flow/credit pass would
// emit — and fails the run on the first disagreement, while the random
// program runs under every policy, VI caps that force evictions and
// reconnects, dropped and refused connection requests, and static or growing
// pools, and then through the worlds of flowWorlds, each built around one
// of the inputs of the flow pass. Every shortcut must have been both taken and
// not taken. A pool is a count too, kept on the VI beside the rank's own: at
// every poll the receives of the connected channels that are not armed are
// messages landed and unread, each in a descriptor of the port's that is out.
func TestPollShortcutsEqualScans(t *testing.T) {
	var taken [scanFlow + 1][2]int // per scan: polls that made it, polls that skipped it
	pollAudit = func(r *Rank, scan pollScan, skip bool) {
		fail := func(format string, args ...any) {
			r.proc.Sim().Failf("rank %d, %s: %s", r.rank, [...]string{"teardown scan", "handshake scans", "send reap", "flow pass"}[scan], fmt.Sprintf(format, args...))
		}
		switch scan {
		case scanTeardown:
			claimed := 0
			for _, cs := range liveChans(r) {
				if skip && cs.ch.Vi.State() == via.ViDisconnected {
					fail("skipped with peer %d's VI disconnected", cs.ch.Rank)
				}
				if armed, _ := cs.ch.Vi.RecvPool(); cs.ch.Vi.State() == via.ViConnected {
					if armed > int(cs.posted) {
						fail("peer %d's VI holds %d receives of a pool of %d", cs.ch.Rank, armed, cs.posted)
					}
					claimed += int(cs.posted) - armed
				}
			}
			if out := r.port.LandingOut(); claimed > out {
				fail("%d pool receives claimed and not re-armed, %d landing descriptors out", claimed, out)
			}
		case scanHandshake:
			n := 0
			for _, cs := range liveChans(r) {
				if !cs.ch.Up {
					n++
				}
			}
			if got := r.mgr.PendingConnections(); got != n || skip != (n == 0) {
				fail("%d channels not up, the manager counts %d (skip %v)", n, got, skip)
			}
		case scanReap:
			n := 0
			for _, cs := range liveChans(r) {
				n += cs.ch.Vi.SendQueueLen()
			}
			if got := r.port.UnreapedSends(); got != n || skip != (n == 0) {
				fail("%d sends queued over the VIs, the port counts %d (skip %v)", n, got, skip)
			}
		case scanFlow:
			for _, cs := range liveChans(r) {
				if !skip || !cs.ch.Up || cs.closing {
					continue
				}
				if cs.flowQ.head != nil && cs.credits >= r.creditNeed(cs.flowQ.head) {
					fail("skipped with a packet to peer %d that has its credits", cs.ch.Rank)
				}
				if cs.freed >= cs.posted/2 && cs.credits >= 1 {
					fail("skipped with a credit return to peer %d due (%d of %d freed)", cs.ch.Rank, cs.freed, cs.posted)
				}
			}
		}
		if skip {
			taken[scan][1]++
		} else {
			taken[scan][0]++
		}
	}
	defer func() { pollAudit = nil }()

	randomWorlds(t, func(string, *World) {})
	flowWorlds(t)
	for scan, c := range taken {
		if c[0] == 0 || c[1] == 0 {
			t.Errorf("scan %d: made %d times, skipped %d times; the test must pass through both", scan, c[0], c[1])
		}
	}
	t.Logf("made/skipped: teardown %v, handshake %v, reap %v, flow %v", taken[0], taken[1], taken[2], taken[3])
}

// flowWorlds runs, under whatever audit the caller installed, the worlds in
// which an input of the flow pass moves some other way than by a plain arrival
// on an idle channel — each a place flowPass's skip ("nothing arrived in this
// poll and no channel came up") would be wrong if its comment's argument were.
// The last is the one the came-up mark in onChannelUp is for: without the mark
// the audit fails there, a credit return due and nothing left to prompt it.
//
//   - a burst of eager sends on a warm channel with four credits: packets
//     queue for credits, returns come back piggybacked and explicit;
//   - a channel that comes up with more sends parked in its FIFO than it has
//     credits: the drain at onChannelUp emits some and queues the rest;
//   - a pool that doubles, under DynamicCredits, while a burst is consuming it;
//   - an eviction the peer refuses (it has a rendezvous in flight) while eager
//     messages from that peer are read off the closing channel, so a credit
//     return is due on a channel the passes skip until BYE_NACK reopens it;
//   - a handshake that completes while the receiver is inside one long drain of
//     other peers' traffic, so the new peer's first packets are read, and half
//     its pool freed, before the next poll's Manager.Poll marks the channel up.
//
// Each world checks payload order itself, and must be seen, at some poll, in
// the state it is named for.
func flowWorlds(t *testing.T) {
	t.Helper()
	msg := func(i int) []byte { return []byte{byte(i), byte(i >> 8), 0x5A} }
	burst := func(r *Rank, peer, tag, n int) {
		c := r.World()
		reqs := make([]Request, n)
		for i := range reqs {
			var err error
			if reqs[i], err = c.Isend(peer, tag, msg(i)); err != nil {
				r.Abort(1, err.Error())
			}
		}
		if err := r.Waitall(reqs...); err != nil {
			r.Abort(1, err.Error())
		}
	}
	drain := func(r *Rank, peer, tag, n int) {
		buf := make([]byte, 8)
		for i := 0; i < n; i++ {
			st, err := r.World().Recv(buf, peer, tag)
			if err != nil || st.Count != 3 || buf[0] != byte(i) || buf[1] != byte(i>>8) {
				r.Abort(1, fmt.Sprintf("rank %d: message %d of tag %d from %d lost, damaged or out of order (%v)", r.Rank(), i, tag, peer, err))
			}
		}
	}
	hello := func(r *Rank, peer int) {
		in := make([]byte, 8)
		if _, err := r.World().Sendrecv(peer, 0, msg(0), peer, 0, in); err != nil {
			r.Abort(1, err.Error())
		}
	}
	evicting := map[*via.VI]int{} // channels seen closing as evictor with arrivals read and no credit returned: the VI's id then
	worlds := []struct {
		name string
		cfg  Config
		seen func(cs *chanState) bool
		prog func(r *Rank)
	}{
		{"credit-starved burst", Config{Procs: 2, Policy: "ondemand", CreditCount: 4}, func(cs *chanState) bool {
			return cs.flowQ.head != nil && cs.flowQ.head.hdr.tag != 0 // a burst's message, sent after the hello
		}, func(r *Rank) {
			hello(r, 1-r.Rank())
			if r.Rank() == 0 {
				burst(r, 1, 1, 40)
				drain(r, 1, 2, 40)
			} else {
				r.Compute(50e-6) // let the sender run out of credits first
				drain(r, 0, 1, 40)
				burst(r, 0, 2, 40)
			}
		}},
		{"more parked sends than credits", Config{Procs: 2, Policy: "ondemand", CreditCount: 4}, func(cs *chanState) bool {
			return parkedOn(cs) > int(cs.credits)
		}, func(r *Rank) {
			if r.Rank() == 0 {
				burst(r, 1, 1, 12) // the first send asks for the connection; all twelve park
			} else {
				r.Compute(50e-6)
				drain(r, 0, 1, 12)
			}
		}},
		{"pool grows mid-burst", Config{Procs: 2, Policy: "ondemand", CreditCount: 32, DynamicCredits: true}, func(cs *chanState) bool {
			return cs.posted > 4 && cs.posted < 32 // past initialCredits, short of CreditCount
		}, func(r *Rank) {
			hello(r, 1-r.Rank())
			if r.Rank() == 0 {
				burst(r, 1, 1, 100)
			} else {
				drain(r, 0, 1, 100)
			}
		}},
		{"BYE refused over unread arrivals", Config{Procs: 3, Policy: "ondemand", MaxVIs: 1, CreditCount: 8, EagerThreshold: 256}, func(cs *chanState) bool {
			if cs.closing && cs.ch.Evicting && cs.freed >= cs.posted/2 {
				evicting[cs.ch.Vi] = cs.ch.Vi.ID()
			}
			id, ok := evicting[cs.ch.Vi]
			return ok && id == cs.ch.Vi.ID() && !cs.closing // the same VI, in the same life, open again
		}, func(r *Rank) {
			c := r.World()
			switch r.Rank() {
			case 0:
				hello(r, 1)
				r.Compute(10e-6)
				c.Iprobe(1, 99) // reap the hello: the channel must look idle
				// Not polling: rank 1's eager messages and its RTS land unread.
				r.Compute(200e-6)
				// The cap is one VI: this evicts the channel to 1 (Isend, not
				// Send, which would poll first and find the RTS). Rank 1,
				// mid-rendezvous, refuses.
				q, err := c.Isend(2, 3, msg(0))
				if err != nil {
					r.Abort(1, err.Error())
				}
				drain(r, 1, 1, 4)
				if _, err := r.Wait(q); err != nil {
					r.Abort(1, err.Error())
				}
				big := make([]byte, 1000)
				if st, err := c.Recv(big, 1, 2); err != nil || st.Count != len(big) {
					r.Abort(1, fmt.Sprintf("rendezvous from 1: %v", err))
				}
			case 1:
				hello(r, 0)
				r.Compute(30e-6) // past rank 0's reap
				burst(r, 0, 1, 4)
				q, err := c.Isend(0, 2, make([]byte, 1000)) // the RTS goes out now
				if err != nil {
					r.Abort(1, err.Error())
				}
				// Not polling either: the BYE waits, and rank 0 reads the
				// burst off a channel that is still closing.
				r.Compute(500e-6)
				if _, err := r.Wait(q); err != nil {
					r.Abort(1, err.Error())
				}
			case 2:
				c.Probe(0, 3) // a specific-source Recv would connect first, and leave rank 0 nothing to evict for
				drain(r, 0, 3, 1)
			}
		}},
		{"handshake completes mid-drain", Config{Procs: 5, Policy: "ondemand", CreditCount: 4, EagerThreshold: 100000}, func(cs *chanState) bool {
			return !cs.ch.Up && cs.freed >= cs.posted/2
		}, func(r *Rank) {
			c := r.World()
			big := make([]byte, 100000) // 100 µs of copy apiece at the receiver
			switch r.Rank() {
			case 0:
				for _, p := range []int{1, 3, 4} {
					hello(r, p)
				}
				var reqs []Request
				irecv := func(buf []byte, src int) {
					q, err := c.Irecv(buf, src, 1)
					if err != nil {
						r.Abort(1, err.Error())
					}
					reqs = append(reqs, q)
				}
				for _, p := range []int{1, 3, 4} {
					for i := 0; i < 2; i++ { // what four credits let through unprompted
						irecv(make([]byte, len(big)), p)
					}
				}
				// The first receive from 2 asks for the connection and parks
				// nothing: once the channel is up this rank has nothing to
				// send on it but the credit return.
				small := make([][]byte, 12)
				for i := range small {
					small[i] = make([]byte, 8)
					irecv(small[i], 2)
				}
				// Not polling: the three bursts land unread. The one poll that
				// drains them then lasts long enough for rank 2's handshake to
				// complete, and its first packets to be read, inside it — after
				// that poll's Manager.Poll, so the channel is not up yet.
				r.Compute(7000e-6)
				if err := r.Waitall(reqs...); err != nil {
					r.Abort(1, err.Error())
				}
				for i, b := range small {
					if b[0] != byte(i) {
						r.Abort(1, fmt.Sprintf("message %d from 2 out of order", i))
					}
				}
			case 2:
				r.Compute(7950e-6) // the handshake completes mid-way through rank 0's drain (±250 µs)
				burst(r, 0, 1, 12)
			default:
				hello(r, 0)
				reqs := make([]Request, 2)
				for i := range reqs {
					var err error
					if reqs[i], err = c.Isend(0, 1, big); err != nil {
						r.Abort(1, err.Error())
					}
				}
				if err := r.Waitall(reqs...); err != nil {
					r.Abort(1, err.Error())
				}
			}
		}},
	}
	audit := pollAudit
	defer func() { pollAudit = audit }()
	for _, w := range worlds {
		seen := false
		pollAudit = func(r *Rank, scan pollScan, skip bool) {
			for _, cs := range liveChans(r) {
				seen = seen || w.seen(cs)
			}
			if audit != nil {
				audit(r, scan, skip)
			}
		}
		w.cfg.Deadline = 10 * simnet.Second
		if _, err := Run(w.cfg, w.prog); err != nil {
			t.Errorf("%s: %v", w.name, err)
		} else if !seen {
			t.Errorf("%s: the world never reached the state it is named for", w.name)
		}
	}
}
