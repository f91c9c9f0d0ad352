package apps

import (
	"fmt"

	"viampi/internal/mpi"
)

// ReplayMain turns a communication pattern into an executable MPI program:
// for the given number of rounds, every rank sends msgBytes to each of its
// pattern destinations and receives from each rank that names it as a
// destination. Running a replay under the on-demand policy turns Table 1's
// analytic destination counts into measured VI counts on the full stack —
// the bridge between the paper's Table 1 and Table 2.
func ReplayMain(p Pattern, rounds, msgBytes int) func(r *mpi.Rank) {
	if msgBytes < 1 {
		msgBytes = 1
	}
	return func(r *mpi.Rank) {
		c := r.World()
		n := c.Size()
		me := c.Rank()
		dests := p.Dests(me, n)
		// Inverse pattern: who sends to me.
		var sources []int
		for s := 0; s < n; s++ {
			if s == me {
				continue
			}
			for _, d := range p.Dests(s, n) {
				if d == me {
					sources = append(sources, s)
					break
				}
			}
		}
		out := make([]byte, msgBytes)
		for round := 0; round < rounds; round++ {
			reqs := make([]mpi.Request, 0, len(dests)+len(sources))
			for _, s := range sources {
				in := make([]byte, msgBytes)
				rq, err := c.Irecv(in, s, round)
				if err != nil {
					r.Proc().Sim().Failf("replay %s rank %d: %v", p.Name, me, err)
					return
				}
				reqs = append(reqs, rq)
			}
			for _, d := range dests {
				sq, err := c.Isend(d, round, out)
				if err != nil {
					r.Proc().Sim().Failf("replay %s rank %d: %v", p.Name, me, err)
					return
				}
				reqs = append(reqs, sq)
			}
			if err := r.Waitall(reqs...); err != nil {
				r.Proc().Sim().Failf("replay %s rank %d: %v", p.Name, me, err)
				return
			}
		}
	}
}

// Replay runs the pattern on a simulated cluster and returns the world
// statistics (VI counts, pinned memory, timings).
func Replay(p Pattern, cfg mpi.Config, rounds, msgBytes int) (*mpi.World, error) {
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("apps: Replay needs Procs set")
	}
	return mpi.Run(cfg, ReplayMain(p, rounds, msgBytes))
}
