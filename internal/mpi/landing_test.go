package mpi

import (
	"testing"

	"viampi/internal/simnet"
)

// An eager pool's receives are posted as a count: the port lends a message a
// descriptor of the network's stock and a buffer as long as the message when it
// claims one, and the progress engine hands both back when the message has been
// read, so host memory follows the messages landed and unread, not channels ×
// credits — while the model pins every byte of every pool, as it always did.

// Every world of the random program — every policy, VI caps that evict and
// reconnect, dropped and refused requests, static and growing pools — ends
// with no descriptor (and so no buffer) out on any port and every one the
// network ever made on its free list, once, no more than it had out at its
// busiest; and at its busiest a port had lent a small part of what its pools
// had posted.
func TestLandingBuffersAllReturn(t *testing.T) {
	most := 0
	randomWorlds(t, func(name string, w *World) {
		sum := 0
		for i, p := range w.Net.Ports() {
			peak, posted := p.Stats().LandingPeak, w.Ranks[i].PeakChans*w.Cfg.initialPool()
			if out := p.LandingOut(); out != 0 {
				t.Errorf("%s: rank %d ended with %d landing descriptors out, want 0", name, i, out)
			}
			if peak == 0 || 2*peak > posted {
				t.Errorf("%s: rank %d had %d landing buffers out at most, with %d receives posted on %d channels; want some, and far fewer than posted",
					name, i, peak, posted, w.Ranks[i].PeakChans)
			}
			most = max(most, peak)
			sum += peak
		}
		free, made := w.Net.Landing()
		if len(free) != made || !distinct(free) || made != w.Net.LandingPeak || made > sum {
			t.Errorf("%s: the network ended with %d landing descriptors free (distinct: %v) of %d made, at most %d out at once, and the ports' peaks sum to %d; want every one it made free, each once, and as many made as its peak, no more than the sum",
				name, len(free), distinct(free), made, w.Net.LandingPeak, sum)
		}
	})
	t.Logf("most landing buffers out on one port at once: %d", most)
}

// A static mesh at the paper's pool size — 24 receives of 5,048 bytes on each
// of 255 VIs, 31 MB pinned per rank, 7.9 GB over the world — is simulable: the
// model pins all of it, and the host allocates for the messages that land
// (a descriptor for each of the 1.6 M receives alone would be 150 MB).
func TestStaticMeshAtPaperPoolSize(t *testing.T) {
	const np = 256
	cfg := Config{Procs: np, Policy: "static-p2p", Deadline: within(65 * simnet.Millisecond)}
	w, _, got := hostCost(t, cfg, func(r *Rank) {
		c := r.World()
		in, out := make([]byte, 8), make([]byte, 8)
		if _, err := c.Sendrecv((r.Rank()+1)%np, 0, out, (r.Rank()+np-1)%np, 0, in); err != nil {
			r.Abort(1, err.Error())
		}
	})
	const pinned = (np - 1) * 24 * 5048
	for _, rs := range w.Ranks {
		if rs.PinnedPeak != pinned {
			t.Fatalf("rank %d pinned %d bytes at its peak, want %d: the model pins every pool whole", rs.Rank, rs.PinnedPeak, pinned)
		}
	}
	const budget = 150e6
	if got > budget {
		t.Errorf("the run allocated %.0f MB on the host, want at most %.0f: backing every pool takes %.0f", got/1e6, budget/1e6, np*pinned/1e6)
	}
	t.Logf("host allocation %.1f MB for %.0f MB pinned in the model", got/1e6, np*pinned/1e6)
}
