// Heat: a 2D Jacobi heat-diffusion solver on a Cartesian process grid —
// the canonical MPI teaching program, run on the simulated VIA cluster.
// It exercises three library layers at once: Cartesian topology helpers
// (MPI_Cart_create/Shift), derived datatypes (column halos via Vector),
// and on-demand connection management (each rank only ever connects to its
// four grid neighbours, whatever the job size).
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"viampi/internal/mpi"
	"viampi/internal/simnet"
)

func main() {
	var (
		np    = flag.Int("np", 16, "process count")
		tile  = flag.Int("tile", 32, "per-rank tile edge (cells)")
		iters = flag.Int("iters", 50, "Jacobi iterations")
	)
	flag.Parse()

	dims, err := mpi.DimsCreate(*np, 2)
	if err != nil {
		log.Fatal(err)
	}
	cfg := mpi.Config{Procs: *np, Policy: "ondemand", Deadline: 600 * simnet.Second}
	var finalResidual float64
	w, err := mpi.Run(cfg, func(r *mpi.Rank) {
		c := r.World()
		cart, err := c.CartCreate(dims, nil) // non-periodic: fixed boundaries
		if err != nil {
			log.Fatal(err)
		}
		n := *tile
		stride := n + 2 // tile plus halo ring
		grid := make([]float64, stride*stride)
		next := make([]float64, stride*stride)
		coords, err := cart.Coords(c.Rank())
		if err != nil {
			log.Fatal(err)
		}
		// Hot fixed boundary: the first interior column of the leftmost
		// rank column is clamped to 100 degrees.
		if coords[1] == 0 {
			for i := 0; i < stride; i++ {
				grid[i*stride+1] = 100
				next[i*stride+1] = 100
			}
		}

		// Column halo layout: n doubles, one per row, stride*8 bytes apart.
		colType, err := mpi.Vector(n, 8, stride*8)
		if err != nil {
			log.Fatal(err)
		}
		rowBytes := make([]byte, 8*n)
		colBytes := make([]byte, 8*n)
		asBytes := func(f []float64) []byte {
			b := make([]byte, 8*len(f))
			mpi.PutF64s(b, f)
			return b
		}

		north, south, err := shift(cart, 0)
		if err != nil {
			log.Fatal(err)
		}
		west, east, err := shift(cart, 1)
		if err != nil {
			log.Fatal(err)
		}

		for it := 0; it < *iters; it++ {
			// Halo exchange: rows north/south (contiguous), columns
			// east/west (strided through the Vector datatype).
			gb := asBytes(grid)
			exchange := func(dst, src int, tag int, out []byte, in []byte) {
				if dst < 0 && src < 0 {
					return
				}
				var reqs []mpi.Request
				if src >= 0 {
					rq, err := c.Irecv(in, src, tag)
					if err != nil {
						log.Fatal(err)
					}
					reqs = append(reqs, rq)
				}
				if dst >= 0 {
					sq, err := c.Isend(dst, tag, out)
					if err != nil {
						log.Fatal(err)
					}
					reqs = append(reqs, sq)
				}
				if err := r.Waitall(reqs...); err != nil {
					log.Fatal(err)
				}
				if src >= 0 {
					copy(rowBytes, in)
				}
			}
			// North row out / south halo in.
			out := gb[(1*stride+1)*8 : (1*stride+1+n)*8]
			in := make([]byte, 8*n)
			exchange(north, south, 1, out, in)
			if south >= 0 {
				mpi.GetF64s(in, grid[(n+1)*stride+1:(n+1)*stride+1+n])
			}
			// South row out / north halo in.
			out = gb[(n*stride+1)*8 : (n*stride+1+n)*8]
			exchange(south, north, 2, out, in)
			if north >= 0 {
				mpi.GetF64s(in, grid[0*stride+1:0*stride+1+n])
			}
			// West column out / east halo in (strided pack).
			packed, err := colType.Pack(gb[(1*stride+1)*8:])
			if err != nil {
				log.Fatal(err)
			}
			exchange(west, east, 3, packed, colBytes)
			if east >= 0 {
				col := mpi.BytesF64(colBytes)
				for i := 0; i < n; i++ {
					grid[(i+1)*stride+n+1] = col[i]
				}
			}
			// East column out / west halo in.
			packed, err = colType.Pack(gb[(1*stride+n)*8:])
			if err != nil {
				log.Fatal(err)
			}
			exchange(east, west, 4, packed, colBytes)
			if west >= 0 {
				col := mpi.BytesF64(colBytes)
				for i := 0; i < n; i++ {
					grid[(i+1)*stride] = col[i]
				}
			}

			// Jacobi sweep (real arithmetic, plus modeled cost).
			var diff float64
			for i := 1; i <= n; i++ {
				for j := 1; j <= n; j++ {
					if coords[1] == 0 && j == 1 {
						next[i*stride+j] = grid[i*stride+j] // fixed boundary column
						continue
					}
					v := 0.25 * (grid[(i-1)*stride+j] + grid[(i+1)*stride+j] +
						grid[i*stride+j-1] + grid[i*stride+j+1])
					diff += math.Abs(v - grid[i*stride+j])
					next[i*stride+j] = v
				}
			}
			grid, next = next, grid
			r.Compute(float64(n*n) * 12e-9) // ~12ns per cell update

			if it == *iters-1 {
				tot := []float64{diff}
				if err := c.AllreduceF64(tot, mpi.SumF64); err != nil {
					log.Fatal(err)
				}
				if c.Rank() == 0 {
					finalResidual = tot[0]
				}
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("heat diffusion on %v grid of %d procs, %d iters, tile %dx%d\n",
		dims, *np, *iters, *tile, *tile)
	fmt.Printf("  final residual  : %.4f\n", finalResidual)
	fmt.Printf("  virtual time    : %.3f ms\n", w.Elapsed.Seconds()*1e3)
	fmt.Printf("  VIs per rank    : %.2f of %d possible (grid neighbours + allreduce tree)\n",
		w.AvgVIs(), *np-1)
}

// shift wraps Cart.Shift returning (negDir, posDir) neighbours.
func shift(cart *mpi.Cart, dim int) (lo, hi int, err error) {
	src, dst, err := cart.Shift(dim, 1)
	if err != nil {
		return -1, -1, err
	}
	return src, dst, nil
}
