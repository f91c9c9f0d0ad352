package mpi

import "fmt"

// Vector (v-variant) collectives.

// Gatherv collects variable-size blocks at root: rank i's sendbuf lands at
// recvbuf[displs[i]:displs[i]+counts[i]]. counts and displs are only
// consulted at the root, as in MPI.
func (c *Comm) Gatherv(sendbuf, recvbuf []byte, counts, displs []int, root int) error {
	n := c.Size()
	if c.myrank != root {
		return c.csend(root, tagGather, sendbuf)
	}
	if len(counts) < n || len(displs) < n {
		return fmt.Errorf("mpi: Gatherv needs %d counts/displs", n)
	}
	copy(recvbuf[displs[root]:displs[root]+counts[root]], sendbuf)
	reqs := c.r.reqList(n - 1)
	for i := 0; i < n; i++ {
		if i == root {
			continue
		}
		req, err := c.irecvCtx(recvbuf[displs[i]:displs[i]+counts[i]], i, tagGather, c.cctx)
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	return c.r.Waitall(reqs...)
}

// Scatterv distributes variable-size blocks from root; each rank receives
// its own block into recvbuf (whose length determines the expected count).
func (c *Comm) Scatterv(sendbuf []byte, counts, displs []int, recvbuf []byte, root int) error {
	n := c.Size()
	if c.myrank != root {
		return c.crecv(recvbuf, root, tagScatter)
	}
	if len(counts) < n || len(displs) < n {
		return fmt.Errorf("mpi: Scatterv needs %d counts/displs", n)
	}
	for i := 0; i < n; i++ {
		blk := sendbuf[displs[i] : displs[i]+counts[i]]
		if i == root {
			copy(recvbuf, blk)
			continue
		}
		if err := c.csend(i, tagScatter, blk); err != nil {
			return err
		}
	}
	return nil
}

// Allgatherv gathers variable-size blocks everywhere: gather to rank 0 then
// broadcast the packed result (counts/displs must be identical on all
// ranks, as MPI requires).
func (c *Comm) Allgatherv(sendbuf, recvbuf []byte, counts, displs []int) error {
	if err := c.Gatherv(sendbuf, recvbuf, counts, displs, 0); err != nil {
		return err
	}
	total := 0
	for i := 0; i < c.Size(); i++ {
		end := displs[i] + counts[i]
		if end > total {
			total = end
		}
	}
	return c.Bcast(recvbuf[:total], 0)
}
