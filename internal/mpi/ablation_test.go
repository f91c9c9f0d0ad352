package mpi

import (
	"testing"

	"viampi/internal/simnet"
)

// TestAblationSendFifoRequired demonstrates the paper's §3.4 failure mode:
// without the pre-posted send FIFO, a send issued before the on-demand
// connection completes is discarded by the VIA layer and the receiver waits
// forever. The run must fail (deadlock) with the discard visible in the
// network counters — and the identical program must succeed with the FIFO.
func TestAblationSendFifoRequired(t *testing.T) {
	program := func(r *Rank) {
		c := r.World()
		if r.Rank() == 0 {
			// First-ever message on this pair: under on-demand the channel
			// cannot be up yet, so without the FIFO this send is discarded.
			if _, err := c.Isend(1, 0, []byte("lost?")); err != nil {
				t.Error(err)
			}
		} else {
			buf := make([]byte, 16)
			if _, err := c.Recv(buf, 0, 0); err != nil {
				t.Error(err)
			}
		}
	}

	cfg := Config{Procs: 2, Policy: "ondemand", Deadline: 5 * simnet.Second}
	newRankHook = func(r *Rank) { r.noSendFifo = true }
	_, err := Run(cfg, program)
	newRankHook = nil
	if err == nil {
		t.Fatal("without the send FIFO the message must be lost and the run must fail")
	}

	w, err := Run(cfg, program)
	if err != nil {
		t.Fatalf("with the FIFO the same program must succeed: %v", err)
	}
	if w.Net.DiscardedSends != 0 {
		t.Fatalf("FIFO path discarded %d sends", w.Net.DiscardedSends)
	}
}
