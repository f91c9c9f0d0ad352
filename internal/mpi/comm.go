package mpi

import "fmt"

// Comm is a communicator: an ordered group of ranks plus an isolated
// matching context. Point-to-point traffic uses ctx; collectives use the
// adjacent cctx so they can never match user receives (MPICH's hidden
// collective context).
type Comm struct {
	r      *Rank
	ctx    int32
	cctx   int32
	ranks  []int // comm rank -> world rank
	myrank int   // this process's rank within the comm
}

// newComm builds a communicator from a world-rank list. Every participating
// rank must call it with the same list and base context.
func newComm(r *Rank, ranks []int, baseCtx int32) *Comm {
	c := &Comm{r: r, ctx: baseCtx, cctx: baseCtx + 1, ranks: ranks, myrank: -1}
	if r.rank < len(ranks) && ranks[r.rank] == r.rank {
		// Identity-mapped position (always true for the world communicator,
		// whose table is shared across all ranks): skipping the scan keeps
		// communicator construction O(1) per rank instead of O(n²) job-wide.
		c.myrank = r.rank
		return c
	}
	for i, w := range ranks {
		if w == r.rank {
			c.myrank = i
		}
	}
	return c
}

// Rank returns the calling process's rank within the communicator.
func (c *Comm) Rank() int { return c.myrank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// Split partitions the communicator by color, ordering each part by (key,
// rank) as MPI_Comm_split does. Ranks passing a negative color get nil.
func (c *Comm) Split(color, key int) (*Comm, error) {
	// Allgather everyone's (color, key).
	mine := []int64{int64(color), int64(key)}
	all := make([]int64, 2*c.Size())
	if err := c.AllgatherI64(mine, all); err != nil {
		return nil, err
	}
	ctx, err := c.allocContext()
	if err != nil {
		return nil, err
	}
	if color < 0 {
		return nil, nil
	}
	if 2*color+1 >= ctxBlock {
		return nil, fmt.Errorf("mpi: Split color %d exceeds the %d-color limit", color, ctxBlock/2)
	}
	type member struct{ key, rank int }
	var members []member
	for rank := 0; rank < c.Size(); rank++ {
		if int(all[2*rank]) == color {
			members = append(members, member{int(all[2*rank+1]), rank})
		}
	}
	// Stable order by (key, original rank).
	for i := 1; i < len(members); i++ {
		for j := i; j > 0; j-- {
			a, b := members[j-1], members[j]
			if b.key < a.key || (b.key == a.key && b.rank < a.rank) {
				members[j-1], members[j] = b, a
			} else {
				break
			}
		}
	}
	ranks := make([]int, len(members))
	for i, m := range members {
		ranks[i] = c.ranks[m.rank]
	}
	// Each color gets a distinct context carved from the agreed block.
	return newComm(c.r, ranks, ctx+2*int32(color)), nil
}

// ctxBlock is the number of context ids reserved per allocation; Split
// carves (ctx, cctx) pairs for up to ctxBlock/2 colors out of one block.
const ctxBlock = 64

// allocContext collectively agrees on a fresh block of context ids: the max
// of everyone's local counter. It costs one allreduce on the parent comm.
func (c *Comm) allocContext() (int32, error) {
	out := []int64{int64(c.r.ctxCounter)}
	if err := c.AllreduceI64(out, MaxI64); err != nil {
		return 0, err
	}
	base := int32(out[0])
	c.r.ctxCounter = base + ctxBlock
	return base, nil
}
