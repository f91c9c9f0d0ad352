package bench

import (
	"viampi/internal/mpi"
	"viampi/internal/simnet"
	"viampi/internal/via"
)

// Mechanism is a named (connection policy, completion mode) pair — the
// paper's static-polling / static-spinwait / on-demand curves.
type Mechanism struct {
	Name   string
	Policy string
	Wait   via.WaitMode
	// Tune optionally perturbs the device cost model (ablations).
	Tune func(*via.CostModel)
}

// The mechanisms compared throughout the paper's evaluation.
var (
	StaticPolling  = Mechanism{Name: "static-polling", Policy: "static-p2p", Wait: via.WaitPoll}
	StaticSpinwait = Mechanism{Name: "static-spinwait", Policy: "static-p2p", Wait: via.WaitSpin}
	StaticCS       = Mechanism{Name: "static-cs", Policy: "static-cs", Wait: via.WaitPoll}
	OnDemand       = Mechanism{Name: "on-demand", Policy: "ondemand", Wait: via.WaitPoll}
)

// Instrument, when set, is applied to every measurement Config before it
// runs — the seam drivers use to attach observability (e.g. cmd/figures
// -trace hands each run an obs bus and flight recorder) without threading
// a parameter through every benchmark signature.
var Instrument func(*mpi.Config)

// baseConfig builds an mpi.Config for a measurement run.
func baseConfig(device string, mech Mechanism, procs int, seed int64) mpi.Config {
	cfg := mpi.Config{
		Procs:    procs,
		Device:   device,
		Policy:   mech.Policy,
		WaitMode: mech.Wait,
		Seed:     seed,
		Deadline: 4 * 3600 * simnet.Second,
		TuneCost: mech.Tune,
	}
	if Instrument != nil {
		Instrument(&cfg)
	}
	return cfg
}

// Pingpong measures one-way latency for size-byte messages between two
// ranks, with extraVIs additional idle endpoints opened on each port first
// (Figure 1's independent variable; 0 otherwise).
func Pingpong(device string, mech Mechanism, size, iters, extraVIs int, seed int64) (simnet.Duration, error) {
	var oneWay simnet.Duration
	var innerErr error
	cfg := baseConfig(device, mech, 2, seed)
	_, err := mpi.Run(cfg, func(r *mpi.Rank) {
		c := r.World()
		for i := 0; i < extraVIs; i++ {
			if _, err := r.Port().CreateVi(); err != nil {
				innerErr = err
				return
			}
		}
		buf := make([]byte, size+1)
		out := make([]byte, size)
		me := r.Rank()
		// Warmup establishes the connection and fills caches.
		const warm = 4
		for i := 0; i < warm+iters; i++ {
			if i == warm {
				if err := c.Barrier(); err != nil {
					innerErr = err
					return
				}
			}
			var err error
			if me == 0 {
				if i == warm {
					r.Compute(0) // timer alignment point
				}
				if err = c.Send(1, 0, out); err == nil {
					_, err = c.Recv(buf, 1, 0)
				}
			} else {
				if _, err = c.Recv(buf, 0, 0); err == nil {
					err = c.Send(0, 0, out)
				}
			}
			if err != nil {
				innerErr = err
				return
			}
		}
		if me == 0 {
			// Re-run the timed loop now that everything is warm.
			start := r.Proc().Now()
			for i := 0; i < iters; i++ {
				if err := c.Send(1, 0, out); err != nil {
					innerErr = err
					return
				}
				if _, err := c.Recv(buf, 1, 0); err != nil {
					innerErr = err
					return
				}
			}
			oneWay = r.Proc().Now().Sub(start) / simnet.Duration(2*iters)
		} else {
			for i := 0; i < iters; i++ {
				if _, err := c.Recv(buf, 0, 0); err != nil {
					innerErr = err
					return
				}
				if err := c.Send(0, 0, out); err != nil {
					innerErr = err
					return
				}
			}
		}
	})
	if err == nil {
		err = innerErr
	}
	return oneWay, err
}

// Bandwidth measures streaming bandwidth in MB/s for size-byte messages:
// rank 0 keeps a window of nonblocking sends in flight; rank 1 receives and
// acknowledges the batch.
func Bandwidth(device string, mech Mechanism, size, iters int, seed int64) (float64, error) {
	const window = 16
	var mbps float64
	var innerErr error
	cfg := baseConfig(device, mech, 2, seed)
	_, err := mpi.Run(cfg, func(r *mpi.Rank) {
		c := r.World()
		me := r.Rank()
		out := make([]byte, size)
		ack := make([]byte, 8)
		if me == 0 {
			// Warmup.
			if err := c.Send(1, 1, out); err != nil {
				innerErr = err
				return
			}
			if _, err := c.Recv(ack, 1, 2); err != nil {
				innerErr = err
				return
			}
			start := r.Proc().Now()
			reqs := make([]mpi.Request, 0, window)
			for i := 0; i < iters; i++ {
				q, err := c.Isend(1, 1, out)
				if err != nil {
					innerErr = err
					return
				}
				reqs = append(reqs, q)
				if len(reqs) == window {
					if err := r.Waitall(reqs...); err != nil {
						innerErr = err
						return
					}
					reqs = reqs[:0]
				}
			}
			if err := r.Waitall(reqs...); err != nil {
				innerErr = err
				return
			}
			if _, err := c.Recv(ack, 1, 2); err != nil {
				innerErr = err
				return
			}
			elapsed := r.Proc().Now().Sub(start).Seconds()
			mbps = float64(size) * float64(iters) / elapsed / 1e6
		} else {
			in := make([]byte, size+1)
			if _, err := c.Recv(in, 0, 1); err != nil {
				innerErr = err
				return
			}
			if err := c.Send(0, 2, ack); err != nil {
				innerErr = err
				return
			}
			for i := 0; i < iters; i++ {
				if _, err := c.Recv(in, 0, 1); err != nil {
					innerErr = err
					return
				}
			}
			if err := c.Send(0, 2, ack); err != nil {
				innerErr = err
				return
			}
		}
	})
	if err == nil {
		err = innerErr
	}
	return mbps, err
}

// CollectiveLatency measures the average latency of repeating a collective
// op iters times on procs ranks, following the paper's method: every rank
// times its own loop, rank 0 gathers and averages.
func CollectiveLatency(device string, mech Mechanism, procs, iters int,
	op func(c *mpi.Comm, scratch []byte) error, seed int64) (simnet.Duration, error) {
	var avg simnet.Duration
	var innerErr error
	cfg := baseConfig(device, mech, procs, seed)
	_, err := mpi.Run(cfg, func(r *mpi.Rank) {
		c := r.World()
		scratch := make([]byte, 64)
		// Warmup: establish whatever connections the collective needs.
		for i := 0; i < 3; i++ {
			if err := op(c, scratch); err != nil {
				innerErr = err
				return
			}
		}
		if err := c.Barrier(); err != nil {
			innerErr = err
			return
		}
		start := r.Proc().Now()
		for i := 0; i < iters; i++ {
			if err := op(c, scratch); err != nil {
				innerErr = err
				return
			}
		}
		mine := r.Proc().Now().Sub(start).Seconds() / float64(iters)
		sums := []float64{mine}
		if err := c.AllreduceF64(sums, mpi.SumF64); err != nil {
			innerErr = err
			return
		}
		if r.Rank() == 0 {
			avg = simnet.Duration(sums[0] / float64(procs) * 1e9)
		}
	})
	if err == nil {
		err = innerErr
	}
	return avg, err
}

// BarrierOp is a Barrier for CollectiveLatency.
func BarrierOp(c *mpi.Comm, _ []byte) error { return c.Barrier() }

// AllreduceOp returns an MPI_SUM allreduce of size bytes (float64s).
func AllreduceOp(size int) func(c *mpi.Comm, scratch []byte) error {
	return func(c *mpi.Comm, _ []byte) error {
		in := make([]byte, size)
		out := make([]byte, size)
		return c.Allreduce(in, out, mpi.SumF64)
	}
}

// InitTime measures the average MPI_Init duration (Figure 8).
func InitTime(device string, mech Mechanism, procs int, seed int64) (simnet.Duration, error) {
	cfg := baseConfig(device, mech, procs, seed)
	w, err := mpi.Run(cfg, func(r *mpi.Rank) {})
	if err != nil {
		return 0, err
	}
	return w.AvgInit(), nil
}
