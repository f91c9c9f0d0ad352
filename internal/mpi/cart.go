package mpi

import "fmt"

// Cartesian process topologies (MPI_Cart_create family): rank <-> grid
// coordinate mapping and neighbour shifts, the bookkeeping every stencil
// code needs. The topology is a pure naming layer over a communicator; it
// creates no connections by itself, so under on-demand management VIs still
// appear only when neighbours first exchange halos.
type Cart struct {
	comm     *Comm
	dims     []int
	periodic []bool
}

// CartCreate builds a Cartesian view of the communicator. The product of
// dims must equal the communicator size; periodic selects wraparound per
// dimension (len(periodic) == len(dims), or nil for all-false).
func (c *Comm) CartCreate(dims []int, periodic []bool) (*Cart, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("mpi: CartCreate with no dimensions")
	}
	p := 1
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("mpi: CartCreate dimension %d", d)
		}
		p *= d
	}
	if p != c.Size() {
		return nil, fmt.Errorf("mpi: CartCreate dims product %d != size %d", p, c.Size())
	}
	if periodic == nil {
		periodic = make([]bool, len(dims))
	}
	if len(periodic) != len(dims) {
		return nil, fmt.Errorf("mpi: CartCreate periodic length %d != dims %d", len(periodic), len(dims))
	}
	return &Cart{
		comm:     c,
		dims:     append([]int(nil), dims...),
		periodic: append([]bool(nil), periodic...),
	}, nil
}

// DimsCreate factors nnodes into ndims balanced dimensions, largest first
// (MPI_Dims_create with all dimensions free).
func DimsCreate(nnodes, ndims int) ([]int, error) {
	if nnodes <= 0 || ndims <= 0 {
		return nil, fmt.Errorf("mpi: DimsCreate(%d, %d)", nnodes, ndims)
	}
	dims := make([]int, ndims)
	for i := range dims {
		dims[i] = 1
	}
	// Collect prime factors, then distribute them largest-first onto the
	// currently smallest dimension — the standard balancing heuristic.
	var factors []int
	n := nnodes
	for f := 2; f*f <= n; {
		if n%f == 0 {
			factors = append(factors, f)
			n /= f
		} else {
			f++
		}
	}
	if n > 1 {
		factors = append(factors, n)
	}
	for i := len(factors) - 1; i >= 0; i-- {
		minI := 0
		for j := 1; j < ndims; j++ {
			if dims[j] < dims[minI] {
				minI = j
			}
		}
		dims[minI] *= factors[i]
	}
	// Sort descending (insertion; ndims is tiny).
	for i := 1; i < ndims; i++ {
		for j := i; j > 0 && dims[j] > dims[j-1]; j-- {
			dims[j], dims[j-1] = dims[j-1], dims[j]
		}
	}
	return dims, nil
}

// Coords returns the grid coordinates of a rank (row-major, dimension 0
// slowest — the MPI convention).
func (t *Cart) Coords(rank int) ([]int, error) {
	if rank < 0 || rank >= t.comm.Size() {
		return nil, fmt.Errorf("mpi: Coords of rank %d", rank)
	}
	coords := make([]int, len(t.dims))
	for i := len(t.dims) - 1; i >= 0; i-- {
		coords[i] = rank % t.dims[i]
		rank /= t.dims[i]
	}
	return coords, nil
}

// Rank returns the rank at the given coordinates, applying periodicity;
// out-of-range coordinates on a non-periodic dimension return -1 (the MPI
// "proc null").
func (t *Cart) Rank(coords []int) (int, error) {
	if len(coords) != len(t.dims) {
		return -1, fmt.Errorf("mpi: Rank with %d coords for %d dims", len(coords), len(t.dims))
	}
	rank := 0
	for i, c := range coords {
		d := t.dims[i]
		if c < 0 || c >= d {
			if !t.periodic[i] {
				return -1, nil
			}
			c = ((c % d) + d) % d
		}
		rank = rank*d + c
	}
	return rank, nil
}

// Shift returns the source and destination ranks for a displacement along
// one dimension (MPI_Cart_shift): src sends to me, I send to dst. Either
// may be -1 at a non-periodic boundary.
func (t *Cart) Shift(dim, disp int) (src, dst int, err error) {
	if dim < 0 || dim >= len(t.dims) {
		return -1, -1, fmt.Errorf("mpi: Shift dimension %d of %d", dim, len(t.dims))
	}
	me, err := t.Coords(t.comm.Rank())
	if err != nil {
		return -1, -1, err
	}
	up := append([]int(nil), me...)
	up[dim] += disp
	dst, err = t.Rank(up)
	if err != nil {
		return -1, -1, err
	}
	down := append([]int(nil), me...)
	down[dim] -= disp
	src, err = t.Rank(down)
	return src, dst, err
}
