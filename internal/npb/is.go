package npb

import (
	"viampi/internal/mpi"
)

type isParams struct {
	totalKeys int // 2^n keys over the whole job
	buckets   int
	niter     int
	serialSec float64
}

var isTable = map[Class]isParams{
	ClassS: {1 << 16, 1 << 10, 10, 0.05},
	ClassW: {1 << 20, 1 << 10, 10, 0.6},
	ClassA: {1 << 23, 1 << 10, 10, 5},
	ClassB: {1 << 25, 1 << 10, 10, 22},
	ClassC: {1 << 27, 1 << 10, 10, 90},
}

// IS is the integer-sort proxy: per iteration an allreduce of the bucket
// histogram followed by the all-to-all-v redistribution of keys — the
// communication-bound benchmark of the set (the paper: "for the B class
// with 16 processes a total amount of 1920 MB must be transferred at each
// all-to-all exchange").
func IS() Kernel {
	return Kernel{
		Name:       "IS",
		ValidProcs: isPow2,
		Main: func(class Class, res *Result) func(r *mpi.Rank) {
			p := isTable[class]
			return func(r *mpi.Rank) {
				c := r.World()
				n := c.Size()
				me := c.Rank()
				keysPerProc := p.totalKeys / n
				keyBytes := 4 * keysPerProc // int32 keys

				// Uniformly random keys redistribute ~evenly.
				blk := keyBytes / n
				scounts := make([]int, n)
				sdispl := make([]int, n)
				rcounts := make([]int, n)
				rdispl := make([]int, n)
				for j := 0; j < n; j++ {
					scounts[j] = blk
					sdispl[j] = j * blk
					rcounts[j] = blk
					rdispl[j] = j * blk
				}
				send := make([]byte, keyBytes)
				recv := make([]byte, keyBytes)
				hist := make([]int64, p.buckets)

				dt := computeSlice(p.serialSec, p.niter, n)

				err := timedRegion(r, c, res, func() error {
					for it := 0; it < p.niter; it++ {
						compute(r, dt, it) // local bucket counting
						for b := range hist {
							hist[b] = int64(me + it + b)
						}
						if err := c.AllreduceI64(hist, mpi.SumI64); err != nil {
							return err
						}
						for j := 0; j < n; j++ {
							if scounts[j] >= 24 {
								stamp(send[sdispl[j]:], me, it, j)
							}
						}
						if err := c.Alltoallv(send, scounts, sdispl, recv, rcounts, rdispl); err != nil {
							return err
						}
						for j := 0; j < n; j++ {
							if rcounts[j] >= 24 && j != me {
								check(res, recv[rdispl[j]:], j, it, me)
							}
						}
					}
					// Final full verification: ranks agree on total key count.
					tot := []int64{int64(keysPerProc)}
					if err := c.AllreduceI64(tot, mpi.SumI64); err != nil {
						return err
					}
					if tot[0] != int64(p.totalKeys) {
						res.Verified = false
						res.Failures++
					}
					return nil
				})
				fail(res, err)
			}
		},
	}
}
