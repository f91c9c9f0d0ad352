package npb

import (
	"viampi/internal/mpi"
)

type ftParams struct {
	nx, ny, nz int
	niter      int
	serialSec  float64
}

var ftTable = map[Class]ftParams{
	ClassS: {64, 64, 64, 6, 0.8},
	ClassW: {128, 128, 32, 6, 4},
	ClassA: {256, 256, 128, 6, 90},
	ClassB: {512, 256, 256, 20, 700},
	ClassC: {512, 512, 512, 20, 3000},
}

// FT is the 3D FFT proxy (an extension beyond the paper's reported set):
// per iteration, local 2D FFTs followed by a global transpose implemented
// as MPI_Alltoall of the full local volume — the heaviest all-to-all user
// in the suite — plus the running checksum allreduce.
func FT() Kernel {
	return Kernel{
		Name:       "FT",
		ValidProcs: isPow2,
		Main: func(class Class, res *Result) func(r *mpi.Rank) {
			p := ftTable[class]
			return func(r *mpi.Rank) {
				c := r.World()
				n := c.Size()
				me := c.Rank()
				// 1D slab decomposition: each rank owns nz/n planes of
				// complex128 values; the transpose moves everything.
				localComplex := p.nx * p.ny * p.nz / n
				totalBytes := 16 * localComplex
				blk := totalBytes / n
				if blk < 32 {
					blk = 32
				}
				send := make([]byte, blk*n)
				recv := make([]byte, blk*n)

				dt := computeSlice(p.serialSec, p.niter*2, n)

				err := timedRegion(r, c, res, func() error {
					for it := 0; it < p.niter; it++ {
						compute(r, dt, 2*it) // local FFTs before transpose
						for j := 0; j < n; j++ {
							if j != me {
								stamp(send[j*blk:], me, it, j)
							}
						}
						if err := c.Alltoall(send, recv, blk); err != nil {
							return err
						}
						for j := 0; j < n; j++ {
							if j != me {
								check(res, recv[j*blk:], j, it, me)
							}
						}
						compute(r, dt, 2*it+1) // local FFTs after transpose
						if err := c.AllreduceF64([]float64{float64(it), 1}, mpi.SumF64); err != nil {
							return err
						}
					}
					return nil
				})
				fail(res, err)
			}
		},
	}
}
