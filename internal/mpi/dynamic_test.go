package mpi

import (
	"bytes"
	"testing"

	"viampi/internal/simnet"
)

// dynCfg returns a 2-rank config with dynamic flow control enabled.
func dynCfg() Config {
	return Config{Procs: 2, DynamicCredits: true, Deadline: 60 * simnet.Second}
}

// TestDynamicCreditsCorrectness: heavy bidirectional traffic stays correct
// and ordered while the pools grow.
func TestDynamicCreditsCorrectness(t *testing.T) {
	const n = 200
	runWorld(t, dynCfg(), func(r *Rank) {
		c := r.World()
		other := 1 - r.Rank()
		var reqs []Request
		for i := 0; i < n; i++ {
			q, err := c.Isend(other, 0, []byte{byte(i), byte(i >> 8)})
			if err != nil {
				t.Error(err)
				return
			}
			reqs = append(reqs, q)
		}
		for i := 0; i < n; i++ {
			buf := make([]byte, 4)
			st, err := c.Recv(buf, other, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if int(buf[0])|int(buf[1])<<8 != i || st.Count != 2 {
				t.Errorf("message %d out of order/corrupt", i)
				return
			}
		}
		if err := r.Waitall(reqs...); err != nil {
			t.Error(err)
		}
	})
}

// TestDynamicCreditsPinnedFootprint: a light exchange leaves the pool at
// its initial size; a heavy one grows it toward CreditCount. Both stay
// below or equal to the static-pool footprint.
func TestDynamicCreditsPinnedFootprint(t *testing.T) {
	light := func(r *Rank) {
		c := r.World()
		other := 1 - r.Rank()
		out := []byte{1}
		in := make([]byte, 4)
		if _, err := c.Sendrecv(other, 0, out, other, 0, in); err != nil {
			t.Error(err)
		}
	}
	heavy := func(r *Rank) {
		c := r.World()
		other := 1 - r.Rank()
		var reqs []Request
		for i := 0; i < 300; i++ {
			q, err := c.Isend(other, 0, []byte{1})
			if err != nil {
				t.Error(err)
				return
			}
			reqs = append(reqs, q)
		}
		in := make([]byte, 4)
		for i := 0; i < 300; i++ {
			if _, err := c.Recv(in, other, 0); err != nil {
				t.Error(err)
				return
			}
		}
		if err := r.Waitall(reqs...); err != nil {
			t.Error(err)
		}
	}

	wLight := runWorld(t, dynCfg(), light)
	wHeavy := runWorld(t, dynCfg(), heavy)
	wStatic := runWorld(t, Config{Procs: 2, Deadline: 60 * simnet.Second}, heavy)

	if wLight.Ranks[0].PinnedPeak >= wHeavy.Ranks[0].PinnedPeak {
		t.Errorf("light pool (%d) not below heavy pool (%d)",
			wLight.Ranks[0].PinnedPeak, wHeavy.Ranks[0].PinnedPeak)
	}
	if wHeavy.Ranks[0].PinnedPeak > wStatic.Ranks[0].PinnedPeak {
		t.Errorf("dynamic pool (%d) exceeded the static pool (%d)",
			wHeavy.Ranks[0].PinnedPeak, wStatic.Ranks[0].PinnedPeak)
	}
	// Light: pool stays at 4 buffers vs static 24 — about 6x smaller.
	if wLight.Ranks[0].PinnedPeak*4 > wStatic.Ranks[0].PinnedPeak {
		t.Errorf("light dynamic footprint %d not well below static %d",
			wLight.Ranks[0].PinnedPeak, wStatic.Ranks[0].PinnedPeak)
	}
}

// TestDynamicCreditsThroughputConverges: after warmup, dynamic flow control
// reaches the same streaming throughput as the full static pool (within a
// few percent).
func TestDynamicCreditsThroughputConverges(t *testing.T) {
	stream := func(cfg Config) simnet.Duration {
		var elapsed simnet.Duration
		runWorld(t, cfg, func(r *Rank) {
			c := r.World()
			const n = 400
			if r.Rank() == 0 {
				// Warmup to let the pool grow.
				for i := 0; i < 100; i++ {
					if err := c.Send(1, 9, []byte("w")); err != nil {
						t.Error(err)
						return
					}
				}
				start := r.Proc().Now()
				var reqs []Request
				for i := 0; i < n; i++ {
					q, err := c.Isend(1, 0, make([]byte, 1024))
					if err != nil {
						t.Error(err)
						return
					}
					reqs = append(reqs, q)
				}
				if err := r.Waitall(reqs...); err != nil {
					t.Error(err)
					return
				}
				ack := make([]byte, 4)
				if _, err := c.Recv(ack, 1, 1); err != nil {
					t.Error(err)
					return
				}
				elapsed = r.Proc().Now().Sub(start)
			} else {
				in := make([]byte, 1100)
				for i := 0; i < 100; i++ {
					if _, err := c.Recv(in, 0, 9); err != nil {
						t.Error(err)
						return
					}
				}
				for i := 0; i < n; i++ {
					if _, err := c.Recv(in, 0, 0); err != nil {
						t.Error(err)
						return
					}
				}
				if err := c.Send(0, 1, []byte("ok")); err != nil {
					t.Error(err)
				}
			}
		})
		return elapsed
	}
	dyn := stream(dynCfg())
	static := stream(Config{Procs: 2, Deadline: 60 * simnet.Second})
	if float64(dyn) > float64(static)*1.05 {
		t.Errorf("dynamic throughput %v more than 5%% behind static %v", dyn, static)
	}
}

// TestDynamicCreditsEquivalence: results identical with and without dynamic
// flow control.
func TestDynamicCreditsEquivalence(t *testing.T) {
	program := func(out *[]byte) func(r *Rank) {
		return func(r *Rank) {
			c := r.World()
			me := c.Rank()
			sum := byte(me)
			for round := 0; round < 5; round++ {
				b := []byte{sum}
				in := make([]byte, 4)
				if _, err := c.Sendrecv((me+1)%c.Size(), round, b, (me+c.Size()-1)%c.Size(), round, in); err != nil {
					t.Error(err)
					return
				}
				sum = sum*17 + in[0]
			}
			all := make([]byte, c.Size())
			if err := c.Allgather([]byte{sum}, all); err != nil {
				t.Error(err)
				return
			}
			if me == 0 {
				*out = all
			}
		}
	}
	var a, b []byte
	cfgA := Config{Procs: 6, Deadline: 60 * simnet.Second}
	runWorld(t, cfgA, program(&a))
	cfgB := Config{Procs: 6, DynamicCredits: true, Deadline: 60 * simnet.Second}
	runWorld(t, cfgB, program(&b))
	if !bytes.Equal(a, b) {
		t.Fatalf("results differ: %v vs %v", a, b)
	}
}
