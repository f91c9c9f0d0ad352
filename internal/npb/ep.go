package npb

import (
	"viampi/internal/mpi"
)

type epParams struct {
	serialSec float64
}

var epTable = map[Class]epParams{
	ClassS: {1},
	ClassW: {12},
	ClassA: {180},
	ClassB: {720},
	ClassC: {2880},
}

// EP is the embarrassingly-parallel proxy: pure local computation followed
// by three small allreduces (the Gaussian-pair sums and the ring-bin
// counts). Its Table 2 VI footprint under on-demand is just the allreduce
// tree — the paper's illustration of the static mechanism's waste.
func EP() Kernel {
	return Kernel{
		Name:       "EP",
		ValidProcs: func(procs int) bool { return procs > 0 },
		Main: func(class Class, res *Result) func(r *mpi.Rank) {
			p := epTable[class]
			return func(r *mpi.Rank) {
				c := r.World()
				n := c.Size()
				// Split the computation into slices so virtual time
				// interleaves across ranks realistically.
				const slices = 16
				dt := computeSlice(p.serialSec, slices, n)
				err := timedRegion(r, c, res, func() error {
					for s := 0; s < slices; s++ {
						compute(r, dt, s)
					}
					if err := c.AllreduceF64([]float64{1, 2}, mpi.SumF64); err != nil {
						return err
					}
					if err := c.AllreduceF64([]float64{3}, mpi.MaxF64); err != nil {
						return err
					}
					return c.AllreduceI64(make([]int64, 10), mpi.SumI64)
				})
				fail(res, err)
			}
		},
	}
}
