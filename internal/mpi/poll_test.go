package mpi

import (
	"fmt"
	"testing"

	"viampi/internal/via"
)

// A poll skips a walk over the live channels when a counter says it would
// find nothing. This test redoes every walk the old way at the moment the
// decision is made — any VI the peer closed, the channels not yet up, the
// send descriptors queued over all VIs, whether the flow/credit pass would
// emit — and fails the run on the first disagreement, while the random
// program runs under every policy, VI caps that force evictions and
// reconnects, dropped and refused connection requests, and static or growing
// pools. Every shortcut must have been both taken and not taken. A pool is a
// count too, kept on the VI beside the rank's own: at every poll the receives
// of the connected channels that are not armed are messages landed and unread,
// each in a descriptor of the port's that is out.
func TestPollShortcutsEqualScans(t *testing.T) {
	var taken [scanFlow + 1][2]int // per scan: polls that made it, polls that skipped it
	pollAudit = func(r *Rank, scan pollScan, skip bool) {
		fail := func(format string, args ...any) {
			r.proc.Sim().Failf("rank %d, %s: %s", r.rank, [...]string{"teardown scan", "handshake scans", "send reap", "flow pass"}[scan], fmt.Sprintf(format, args...))
		}
		switch scan {
		case scanTeardown:
			claimed := 0
			for _, cs := range r.active {
				if skip && cs.ch.Vi.State() == via.ViDisconnected {
					fail("skipped with peer %d's VI disconnected", cs.peer)
				}
				if armed, _ := cs.ch.Vi.RecvPool(); cs.ch.Vi.State() == via.ViConnected {
					if armed > cs.posted {
						fail("peer %d's VI holds %d receives of a pool of %d", cs.peer, armed, cs.posted)
					}
					claimed += cs.posted - armed
				}
			}
			if _, out := r.port.Landing(); claimed > out {
				fail("%d pool receives claimed and not re-armed, %d landing descriptors out", claimed, out)
			}
		case scanHandshake:
			n := 0
			for _, cs := range r.active {
				if !cs.ch.Up {
					n++
				}
			}
			if got := r.mgr.PendingConnections(); got != n || skip != (n == 0) {
				fail("%d channels not up, the manager counts %d (skip %v)", n, got, skip)
			}
		case scanReap:
			n := 0
			for _, cs := range r.active {
				n += cs.ch.Vi.SendQueueLen()
			}
			if got := r.port.UnreapedSends(); got != n || skip != (n == 0) {
				fail("%d sends queued over the VIs, the port counts %d (skip %v)", n, got, skip)
			}
		case scanFlow:
			for _, cs := range r.active {
				if !skip || !cs.ch.Up || cs.closing {
					continue
				}
				if len(cs.flowQ) > 0 && cs.credits >= r.creditNeed(cs.flowQ[0]) {
					fail("skipped with a packet to peer %d that has its credits", cs.peer)
				}
				if cs.freed >= cs.posted/2 && cs.credits >= 1 {
					fail("skipped with a credit return to peer %d due (%d of %d freed)", cs.peer, cs.freed, cs.posted)
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
	for scan, c := range taken {
		if c[0] == 0 || c[1] == 0 {
			t.Errorf("scan %d: made %d times, skipped %d times; the test must pass through both", scan, c[0], c[1])
		}
	}
	t.Logf("made/skipped: teardown %v, handshake %v, reap %v, flow %v", taken[0], taken[1], taken[2], taken[3])
}
