package npb

import (
	"viampi/internal/mpi"
)

type luParams struct {
	grid      int
	niter     int
	serialSec float64
}

var luTable = map[Class]luParams{
	ClassS: {12, 50, 0.8},
	ClassW: {33, 300, 110},
	ClassA: {64, 250, 2000},
	ClassB: {102, 250, 8000},
	ClassC: {162, 250, 32000},
}

// LU is the SSOR wavefront proxy (an extension beyond the paper's reported
// set): a 2D non-periodic process grid where each iteration pipelines the
// lower- and upper-triangular sweeps plane by plane — many small messages
// to the south/east (then north/west) neighbours — followed by a periodic
// residual allreduce. The fine-grained pipeline is the latency-sensitive
// counterpoint to IS's bandwidth-bound all-to-all.
func LU() Kernel {
	return Kernel{
		Name:       "LU",
		ValidProcs: isPow2,
		Main: func(class Class, res *Result) func(r *mpi.Rank) {
			p := luTable[class]
			return func(r *mpi.Rank) {
				c := r.World()
				n := c.Size()
				me := c.Rank()
				// 2D grid: cols = rows or 2*rows.
				rows := 1 << uint(log2(n)/2)
				cols := n / rows
				row, col := me/cols, me%cols

				cell := maxInt(1, p.grid/maxInt(rows, cols))
				planeBytes := maxInt(32, 8*5*cell) // 5 variables per edge cell
				nplanes := maxInt(1, p.grid/4)     // pipelined k-planes (batched)

				north, south := -1, -1
				west, east := -1, -1
				if row > 0 {
					north = (row-1)*cols + col
				}
				if row < rows-1 {
					south = (row+1)*cols + col
				}
				if col > 0 {
					west = row*cols + col - 1
				}
				if col < cols-1 {
					east = row*cols + col + 1
				}

				out := make([]byte, planeBytes)
				in := make([]byte, planeBytes)

				dt := computeSlice(p.serialSec, p.niter*2*nplanes, n)

				err := timedRegion(r, c, res, func() error {
					for it := 0; it < p.niter; it++ {
						// Lower-triangular sweep: waves flow from northwest.
						for k := 0; k < nplanes; k++ {
							if north >= 0 {
								if _, err := c.Recv(in, north, 60); err != nil {
									return err
								}
								check(res, in, north, it, 60+k%7)
							}
							if west >= 0 {
								if _, err := c.Recv(in, west, 61); err != nil {
									return err
								}
								check(res, in, west, it, 61+k%7)
							}
							compute(r, dt, it*1000+k)
							if south >= 0 {
								stamp(out, me, it, 60+k%7)
								if err := c.Send(south, 60, out); err != nil {
									return err
								}
							}
							if east >= 0 {
								stamp(out, me, it, 61+k%7)
								if err := c.Send(east, 61, out); err != nil {
									return err
								}
							}
						}
						// Upper-triangular sweep: waves flow from southeast.
						for k := 0; k < nplanes; k++ {
							if south >= 0 {
								if _, err := c.Recv(in, south, 62); err != nil {
									return err
								}
								check(res, in, south, it, 62+k%7)
							}
							if east >= 0 {
								if _, err := c.Recv(in, east, 63); err != nil {
									return err
								}
								check(res, in, east, it, 63+k%7)
							}
							compute(r, dt, it*1000+500+k)
							if north >= 0 {
								stamp(out, me, it, 62+k%7)
								if err := c.Send(north, 62, out); err != nil {
									return err
								}
							}
							if west >= 0 {
								stamp(out, me, it, 63+k%7)
								if err := c.Send(west, 63, out); err != nil {
									return err
								}
							}
						}
						if it%20 == 0 {
							if err := c.AllreduceF64([]float64{1}, mpi.SumF64); err != nil {
								return err
							}
						}
					}
					return nil
				})
				fail(res, err)
			}
		},
	}
}
