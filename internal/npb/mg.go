package npb

import (
	"viampi/internal/mpi"
)

type mgParams struct {
	grid      int // finest grid is grid^3
	niter     int
	serialSec float64
}

var mgTable = map[Class]mgParams{
	ClassS: {32, 4, 0.3},
	ClassW: {128, 4, 9},
	ClassA: {256, 4, 70},
	ClassB: {256, 20, 330},
	ClassC: {512, 20, 4900},
}

// MG is the multigrid V-cycle proxy on a 3D periodic process grid. Each
// level exchanges ghost faces along all three axes (both directions posted
// nonblocking, as comm3's give3/take3 do — a blocking ring would deadlock);
// when the coarse grid becomes sparser than the process grid the partner
// distance doubles, which is what widens MG's partner set in Table 2. Each
// iteration ends with the residual-norm allreduce, and setup does the zran3
// broadcast and a barrier, matching the collectives the paper lists for MG.
func MG() Kernel {
	return Kernel{
		Name:       "MG",
		ValidProcs: isPow2,
		Main: func(class Class, res *Result) func(r *mpi.Rank) {
			p := mgTable[class]
			return func(r *mpi.Rank) {
				c := r.World()
				n := c.Size()
				me := c.Rank()
				dx, dy, dz := mgProcGrid(n)
				dims := [3]int{dx, dy, dz}
				coord := [3]int{me % dx, (me / dx) % dy, me / (dx * dy)}

				levels := log2(p.grid) - 1 // down to a 2^1 grid
				minDim := dims[0]
				for _, d := range dims {
					if d < minDim {
						minDim = d
					}
				}
				faceCap := 8*p.grid*p.grid/minDim + 64
				var bufs [2][]byte
				var ins [2][]byte
				for i := range bufs {
					bufs[i] = make([]byte, faceCap)
					ins[i] = make([]byte, faceCap)
				}

				steps := p.niter * levels
				dt := computeSlice(p.serialSec, steps, n)

				err := timedRegion(r, c, res, func() error {
					// Setup collectives (zran3 seeds + sync).
					seed := make([]byte, 64)
					if err := c.Bcast(seed, 0); err != nil {
						return err
					}
					if err := c.Barrier(); err != nil {
						return err
					}
					for it := 0; it < p.niter; it++ {
						for lvl := 0; lvl < levels; lvl++ {
							compute(r, dt, it*100+lvl)
							pts := p.grid >> uint(lvl)
							for axis := 0; axis < 3; axis++ {
								dist := 1
								if pts < dims[axis] {
									// Fewer grid points than processes along
									// this axis: active partners are farther.
									dist = dims[axis] / maxInt(1, pts)
									if dist >= dims[axis] {
										continue // collapsed onto one rank
									}
								}
								fy := maxInt(1, pts/dims[(axis+1)%3])
								fz := maxInt(1, pts/dims[(axis+2)%3])
								face := 8 * fy * fz
								if face > faceCap {
									face = faceCap
								}
								east := mgNeighbor(coord, dims, axis, dist, dx, dy)
								west := mgNeighbor(coord, dims, axis, -dist, dx, dy)
								if east == me {
									continue
								}
								// Travel-direction tags: eastward (dir 0) and
								// westward (dir 1).
								tagE := 20 + axis*2
								tagW := 21 + axis*2
								phase := it*100 + lvl
								rq1, err := c.Irecv(ins[0][:face], west, tagE)
								if err != nil {
									return err
								}
								rq2, err := c.Irecv(ins[1][:face], east, tagW)
								if err != nil {
									return err
								}
								stamp(bufs[0][:face], me, phase, axis*100)
								sq1, err := c.Isend(east, tagE, bufs[0][:face])
								if err != nil {
									return err
								}
								stamp(bufs[1][:face], me, phase, axis*100+1)
								sq2, err := c.Isend(west, tagW, bufs[1][:face])
								if err != nil {
									return err
								}
								if err := r.Waitall(rq1, rq2, sq1, sq2); err != nil {
									return err
								}
								check(res, ins[0][:face], west, phase, axis*100)
								check(res, ins[1][:face], east, phase, axis*100+1)
							}
						}
						// Residual norm.
						if err := c.AllreduceF64([]float64{1}, mpi.SumF64); err != nil {
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// mgProcGrid factors a power-of-two process count into near-equal dims.
func mgProcGrid(n int) (dx, dy, dz int) {
	dx, dy, dz = 1, 1, 1
	axis := 0
	for n > 1 {
		switch axis % 3 {
		case 0:
			dx *= 2
		case 1:
			dy *= 2
		case 2:
			dz *= 2
		}
		n /= 2
		axis++
	}
	return
}

// mgNeighbor returns the rank offset by off along axis with periodic wrap.
func mgNeighbor(coord, dims [3]int, axis, off, dx, dy int) int {
	c := coord
	c[axis] = ((c[axis]+off)%dims[axis] + dims[axis]) % dims[axis]
	return c[2]*dx*dy + c[1]*dx + c[0]
}
