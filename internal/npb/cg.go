package npb

import (
	"viampi/internal/mpi"
)

// cgParams are the NPB CG class definitions plus the serial-compute
// calibration (total single-processor seconds for the whole timed region,
// anchored to Table 3 of the paper: e.g. class B at 16 processes ran
// ~152 s, so serial ≈ 2440 s).
type cgParams struct {
	na        int // matrix order
	niter     int // outer iterations
	serialSec float64
}

var cgTable = map[Class]cgParams{
	ClassS: {1400, 15, 1.6},
	ClassW: {7000, 15, 12},
	ClassA: {14000, 15, 70},
	ClassB: {75000, 75, 2400},
	ClassC: {150000, 75, 9200},
}

const cgInnerIters = 25 // cgitmax in cg.f

// CG is the conjugate-gradient proxy: a 2D process grid (rows × cols, cols
// = rows or 2×rows) doing, per inner iteration, a recursive-halving sum
// ladder across each row, a transpose-partner exchange, and scalar dot
// products on the same ladder; per outer iteration a residual-norm
// allreduce.
func CG() Kernel {
	return Kernel{
		Name:       "CG",
		ValidProcs: isPow2,
		Main: func(class Class, res *Result) func(r *mpi.Rank) {
			p := cgTable[class]
			return func(r *mpi.Rank) {
				c := r.World()
				n := c.Size()
				me := c.Rank()
				nprows := 1 << uint(log2(n)/2)
				npcols := n / nprows
				row, col := me/npcols, me%npcols

				segElems := p.na / nprows
				segBytes := 8 * segElems
				seg := make([]byte, segBytes)
				in := make([]byte, segBytes)
				scalar := make([]byte, 24+8)
				scalarIn := make([]byte, 24+8)
				transpose := cgTransposePartner(me, nprows, npcols)

				dt := computeSlice(p.serialSec, p.niter*cgInnerIters, n)

				err := timedRegion(r, c, res, func() error {
					for it := 0; it < p.niter; it++ {
						for sub := 0; sub < cgInnerIters; sub++ {
							phase := it*cgInnerIters + sub
							// Local matvec.
							compute(r, dt, phase)
							// Sum w across the row: recursive halving.
							for bit := 1; bit < npcols; bit <<= 1 {
								partner := row*npcols + (col ^ bit)
								stamp(seg, me, phase, bit)
								if _, err := c.Sendrecv(partner, 10+bit, seg, partner, 10+bit, in); err != nil {
									return err
								}
								check(res, in, partner, phase, bit)
							}
							// Transpose exchange.
							if transpose != me {
								stamp(seg, me, phase, 777)
								if _, err := c.Sendrecv(transpose, 7, seg, transpose, 7, in); err != nil {
									return err
								}
								check(res, in, transpose, phase, 777)
							}
							// Two dot products on the row ladder (scalars).
							for d := 0; d < 2; d++ {
								for bit := 1; bit < npcols; bit <<= 1 {
									partner := row*npcols + (col ^ bit)
									stamp(scalar, me, phase, 900+d*10+bit)
									if _, err := c.Sendrecv(partner, 50+d, scalar, partner, 50+d, scalarIn); err != nil {
										return err
									}
									check(res, scalarIn, partner, phase, 900+d*10+bit)
								}
							}
						}
						// Residual norm across all ranks.
						if err := c.AllreduceF64([]float64{float64(it)}, mpi.SumF64); err != nil {
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

// cgTransposePartner mirrors NPB cg.f's exch_proc.
func cgTransposePartner(me, nprows, npcols int) int {
	if npcols == nprows {
		return (me%nprows)*nprows + me/nprows
	}
	return 2*((me/2%nprows)*nprows+me/2/nprows) + me%2
}
