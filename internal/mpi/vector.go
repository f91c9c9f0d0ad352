package mpi

import "fmt"

// Vector (v-variant) collectives and additional request-completion helpers.

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
	return c.r.waitOwned(reqs)
}

// Scatterv distributes variable-size blocks from root; each rank receives
// its own block into recvbuf (whose length determines the expected count).
func (c *Comm) Scatterv(sendbuf []byte, counts, displs []int, recvbuf []byte, root int) error {
	n := c.Size()
	if c.myrank != root {
		_, err := c.crecv(recvbuf, root, tagScatter)
		return err
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

// Waitany blocks until at least one of the requests completes and returns
// its index (MPI_Waitany). With an empty slice it returns -1.
func (r *Rank) Waitany(reqs ...*Request) (int, error) {
	if len(reqs) == 0 {
		return -1, nil
	}
	idx := -1
	r.waitProgress(func() bool {
		for i, q := range reqs {
			if q.done {
				idx = i
				return true
			}
		}
		return false
	})
	return idx, reqs[idx].err
}

// Waitsome blocks until at least one request completes and returns the
// indices of all completed requests (MPI_Waitsome).
func (r *Rank) Waitsome(reqs ...*Request) ([]int, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	var done []int
	r.waitProgress(func() bool {
		done = done[:0]
		for i, q := range reqs {
			if q.done {
				done = append(done, i)
			}
		}
		return len(done) > 0
	})
	for _, i := range done {
		if reqs[i].err != nil {
			return done, reqs[i].err
		}
	}
	return done, nil
}

// Testall makes one progress pass and reports whether every request has
// completed (MPI_Testall).
func (r *Rank) Testall(reqs ...*Request) (bool, error) {
	r.progress()
	for _, q := range reqs {
		if !q.done {
			return false, nil
		}
	}
	for _, q := range reqs {
		if q.err != nil {
			return true, q.err
		}
	}
	return true, nil
}
