package mpi

import "fmt"

// Collective operations, implemented with the MPICH-1.2-era algorithms the
// paper's MVICH used: recursive doubling for barrier and allreduce, binomial
// trees for bcast/reduce, recursive doubling or gather+bcast for allgather,
// and pairwise linear exchange for alltoall. All collective traffic runs in the
// communicator's hidden collective context, so it can never match user
// point-to-point receives.

// Internal tags distinguishing collective operations. Each gets a spaced
// range because recursive doubling uses tag, tag+1 and tag+2 internally.
const (
	tagBarrierUp = 10
	tagAllreduce = 20
	tagBcast     = 30
	tagReduce    = 40
	tagGather    = 50
	tagAllgather = 70
	tagAlltoall  = 80
)

// Barrier blocks until every rank in the communicator has entered it.
//
// The algorithm is recursive doubling over the hypercube (partner = rank XOR
// 2^k), with non-power-of-2 stragglers folded onto the power-of-2 core —
// matching the log2(N) partner counts the paper's Table 2 measures for
// MVICH's barrier (4 at 16 processes, 5 at 32) and the extra steps at
// non-power-of-2 sizes that cause the fluctuation under Figure 4.
func (c *Comm) Barrier() error {
	defer c.r.prof.enter("Barrier")()
	b := c.r.collScratch(16)
	token := b[:8]
	clear(token) // the wire carries zeros, whatever the scratch last held
	return c.recursiveDoubling(token, b[8:], BorI64, tagBarrierUp)
}

// recursiveDoubling runs the fold + XOR-exchange + unfold pattern shared by
// Barrier and Allreduce. buf is combined in place on every rank; tmp, as long
// as buf, receives each partner's contribution.
func (c *Comm) recursiveDoubling(buf, tmp []byte, op Op, tag int) error {
	n := c.Size()
	if n == 1 {
		return nil
	}
	me := c.myrank
	p2 := 1
	for p2*2 <= n {
		p2 *= 2
	}
	rem := n - p2

	// Fold: ranks beyond the power-of-2 core hand their contribution down.
	if me >= p2 {
		if err := c.csend(me-p2, tag, buf); err != nil {
			return err
		}
		// Wait for the final result.
		return c.crecv(buf, me-p2, tag+1)
	}
	if me < rem {
		if err := c.crecv(tmp, me+p2, tag); err != nil {
			return err
		}
		op.Combine(buf, tmp)
	}
	// Hypercube exchange.
	for mask := 1; mask < p2; mask <<= 1 {
		partner := me ^ mask
		if err := c.csendrecv(partner, tag+2, buf, tmp); err != nil {
			return err
		}
		op.Combine(buf, tmp)
	}
	// Unfold.
	if me < rem {
		return c.csend(me+p2, tag+1, buf)
	}
	return nil
}

// Bcast broadcasts buf from root to every rank (binomial tree).
func (c *Comm) Bcast(buf []byte, root int) error {
	defer c.r.prof.enter("Bcast")()
	return c.bcastCtx(buf, root, tagBcast)
}

func (c *Comm) bcastCtx(buf []byte, root, tag int) error {
	n := c.Size()
	if n == 1 {
		return nil
	}
	if root < 0 || root >= n {
		return fmt.Errorf("mpi: Bcast root %d of %d", root, n)
	}
	relative := (c.myrank - root + n) % n
	mask := 1
	for mask < n {
		if relative&mask != 0 {
			src := (relative - mask + root) % n
			if err := c.crecv(buf, (src+n)%n, tag); err != nil {
				return err
			}
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if relative+mask < n {
			dst := (relative + mask + root) % n
			if err := c.csend(dst, tag, buf); err != nil {
				return err
			}
		}
		mask >>= 1
	}
	return nil
}

// Reduce combines every rank's sendbuf with op into recvbuf at root
// (binomial tree). recvbuf is only written at root, where it must hold
// len(sendbuf) bytes.
func (c *Comm) Reduce(sendbuf, recvbuf []byte, op Op, root int) error {
	defer c.r.prof.enter("Reduce")()
	n := c.Size()
	if root < 0 || root >= n {
		return fmt.Errorf("mpi: Reduce root %d of %d", root, n)
	}
	if c.myrank == root && len(recvbuf) < len(sendbuf) {
		return fmt.Errorf("mpi: Reduce recvbuf %d < sendbuf %d", len(recvbuf), len(sendbuf))
	}
	b := c.r.collScratch(2 * len(sendbuf))
	accum, tmp := b[:len(sendbuf)], b[len(sendbuf):]
	copy(accum, sendbuf)
	relative := (c.myrank - root + n) % n
	for mask := 1; mask < n; mask <<= 1 {
		if relative&mask != 0 {
			dst := (relative - mask + root) % n
			if err := c.csend((dst+n)%n, tagReduce, accum); err != nil {
				return err
			}
			break
		}
		if relative+mask < n {
			src := (relative + mask + root) % n
			if err := c.crecv(tmp, src, tagReduce); err != nil {
				return err
			}
			op.Combine(accum, tmp)
		}
	}
	if c.myrank == root {
		copy(recvbuf, accum)
	}
	return nil
}

// Allreduce combines every rank's sendbuf into recvbuf on all ranks by
// recursive doubling — the log2(N)-partner pattern whose per-rank VI counts
// the paper's Table 2 measures for MVICH (4 at 16 processes, 5 at 32).
func (c *Comm) Allreduce(sendbuf, recvbuf []byte, op Op) error {
	defer c.r.prof.enter("Allreduce")()
	if len(recvbuf) < len(sendbuf) {
		return fmt.Errorf("mpi: Allreduce recvbuf %d < sendbuf %d", len(recvbuf), len(sendbuf))
	}
	copy(recvbuf, sendbuf)
	return c.recursiveDoubling(recvbuf[:len(sendbuf)], c.r.collScratch(len(sendbuf)), op, tagAllreduce)
}

// AllreduceF64 reduces v across all ranks in place (Allreduce with
// MPI_IN_PLACE): on return every rank's v holds the combined values.
func (c *Comm) AllreduceF64(v []float64, op Op) error {
	defer c.r.prof.enter("Allreduce")()
	b := c.r.collScratch(16 * len(v))
	buf := b[:8*len(v)]
	PutF64s(buf, v)
	if err := c.recursiveDoubling(buf, b[len(buf):], op, tagAllreduce); err != nil {
		return err
	}
	GetF64s(buf, v)
	return nil
}

// AllreduceI64 reduces v across all ranks in place, as AllreduceF64 does.
func (c *Comm) AllreduceI64(v []int64, op Op) error {
	defer c.r.prof.enter("Allreduce")()
	b := c.r.collScratch(16 * len(v))
	buf := b[:8*len(v)]
	putI64s(buf, v)
	if err := c.recursiveDoubling(buf, b[len(buf):], op, tagAllreduce); err != nil {
		return err
	}
	getI64s(buf, v)
	return nil
}

// Gather collects each rank's equal-size sendbuf into recvbuf at root
// (linear, as in MPICH-1). recvbuf must be Size()*len(sendbuf) at root.
func (c *Comm) Gather(sendbuf, recvbuf []byte, root int) error {
	defer c.r.prof.enter("Gather")()
	n := c.Size()
	sz := len(sendbuf)
	if c.myrank != root {
		return c.csend(root, tagGather, sendbuf)
	}
	if len(recvbuf) < n*sz {
		return fmt.Errorf("mpi: Gather recvbuf %d < %d", len(recvbuf), n*sz)
	}
	copy(recvbuf[root*sz:], sendbuf)
	reqs := c.r.reqList(n - 1)
	for i := 0; i < n; i++ {
		if i == root {
			continue
		}
		req, err := c.irecvCtx(recvbuf[i*sz:(i+1)*sz], i, tagGather, c.cctx)
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	return c.r.Waitall(reqs...)
}

// Allgather concatenates each rank's equal-size sendbuf into recvbuf on all
// ranks: recursive doubling when the size is a power of two (log2(N)
// partners, doubling block runs), otherwise gather-to-0 plus broadcast.
func (c *Comm) Allgather(sendbuf, recvbuf []byte) error {
	defer c.r.prof.enter("Allgather")()
	n := c.Size()
	sz := len(sendbuf)
	if len(recvbuf) < n*sz {
		return fmt.Errorf("mpi: Allgather recvbuf %d < %d", len(recvbuf), n*sz)
	}
	if n&(n-1) != 0 {
		if err := c.Gather(sendbuf, recvbuf, 0); err != nil {
			return err
		}
		return c.Bcast(recvbuf[:n*sz], 0)
	}
	me := c.myrank
	copy(recvbuf[me*sz:(me+1)*sz], sendbuf)
	for mask := 1; mask < n; mask <<= 1 {
		partner := me ^ mask
		myBase := me &^ (mask - 1)
		pBase := partner &^ (mask - 1)
		out := recvbuf[myBase*sz : (myBase+mask)*sz]
		in := recvbuf[pBase*sz : (pBase+mask)*sz]
		if err := c.csendrecv(partner, tagAllgather, out, in); err != nil {
			return err
		}
	}
	return nil
}

// AllgatherI64 gathers one int64 block per rank into out, which must hold
// Size()*len(in) values.
func (c *Comm) AllgatherI64(in []int64, out []int64) error {
	n := c.Size()
	if len(out) < n*len(in) {
		return fmt.Errorf("mpi: AllgatherI64 out %d < %d", len(out), n*len(in))
	}
	b := c.r.collScratch(8 * len(in) * (n + 1))
	sb, rb := b[:8*len(in)], b[8*len(in):]
	putI64s(sb, in)
	if err := c.Allgather(sb, rb); err != nil {
		return err
	}
	getI64s(rb, out[:n*len(in)])
	return nil
}

// blocks names the per-rank blocks of an all-to-all buffer: block i is
// counts[i] bytes at displ[i] or, with no vectors, the i'th run of size bytes.
type blocks struct {
	buf           []byte
	counts, displ []int
	size          int
}

func (b blocks) at(i int) []byte {
	if b.counts == nil {
		return b.buf[i*b.size : (i+1)*b.size]
	}
	return b.buf[b.displ[i] : b.displ[i]+b.counts[i]]
}

// Alltoall exchanges equal-size blocks: rank i's block j lands in rank j's
// slot i. Pairwise linear exchange with all receives pre-posted.
func (c *Comm) Alltoall(sendbuf, recvbuf []byte, blockSize int) error {
	return c.alltoall(blocks{buf: sendbuf, size: blockSize}, blocks{buf: recvbuf, size: blockSize})
}

// Alltoallv is the vector all-to-all: rank i sends sendbuf[sdispl[j]:+scounts[j]]
// to rank j, receiving into recvbuf[rdispl[j]:+rcounts[j]]. A vector shorter
// than Size(), a negative entry or a block outside its buffer is an error.
func (c *Comm) Alltoallv(sendbuf []byte, scounts, sdispl []int,
	recvbuf []byte, rcounts, rdispl []int) error {
	return c.alltoall(blocks{buf: sendbuf, counts: scounts, displ: sdispl},
		blocks{buf: recvbuf, counts: rcounts, displ: rdispl})
}

// alltoall is the exchange under Alltoall and Alltoallv; both show in the
// profile as Alltoallv.
func (c *Comm) alltoall(send, recv blocks) error {
	defer c.r.prof.enter("Alltoallv")()
	n := c.Size()
	// Every block of both sides lies inside its buffer: the vectors hold at
	// least n entries and no count or displacement is negative.
	for _, b := range [...]blocks{send, recv} {
		if b.counts == nil {
			if b.size < 0 || len(b.buf) < n*b.size {
				return fmt.Errorf("mpi: Alltoall buffer %d too small for %d x %d", len(b.buf), n, b.size)
			}
			continue
		}
		if len(b.counts) < n || len(b.displ) < n {
			return fmt.Errorf("mpi: Alltoallv vectors of %d and %d entries for %d ranks", len(b.counts), len(b.displ), n)
		}
		for i := 0; i < n; i++ {
			if b.counts[i] < 0 || b.displ[i] < 0 || b.counts[i] > len(b.buf)-b.displ[i] {
				return fmt.Errorf("mpi: Alltoallv block %d (%d B at %d) outside its %d B buffer", i, b.counts[i], b.displ[i], len(b.buf))
			}
		}
	}
	me := c.myrank
	copy(recv.at(me), send.at(me))
	reqs := c.r.reqList(2 * (n - 1))
	// Post all receives first, then sends, staggered (rank+i) to spread load.
	for i := 1; i < n; i++ {
		src := (me - i + n) % n
		req, err := c.irecvCtx(recv.at(src), src, tagAlltoall, c.cctx)
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	for i := 1; i < n; i++ {
		dst := (me + i) % n
		req, err := c.isendCtx(ModeStandard, dst, tagAlltoall, send.at(dst), c.cctx)
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	return c.r.Waitall(reqs...)
}

// csend is a blocking collective-context send.
func (c *Comm) csend(dst, tag int, data []byte) error {
	return c.send(ModeStandard, dst, tag, data, c.cctx)
}

// csendrecv is a blocking collective-context symmetric exchange with one
// partner: send out, receive into in, same tag.
func (c *Comm) csendrecv(partner, tag int, out, in []byte) error {
	_, err := c.sendrecv(partner, tag, out, partner, tag, in, c.cctx)
	return err
}

// crecv is a blocking collective-context receive.
func (c *Comm) crecv(buf []byte, src, tag int) error {
	h, err := c.irecvCtx(buf, src, tag, c.cctx)
	if err != nil {
		return err
	}
	_, err = c.r.Wait(h)
	return err
}

// collScratch lends a blocking collective the rank's scratch, n bytes long:
// what a collective combines, encodes or receives into before the caller's
// buffers see the result lives there, so a steady-state collective allocates
// nothing. Nothing it lends is handed to the caller, and the borrower calls
// no other borrower while it holds it.
func (r *Rank) collScratch(n int) []byte {
	if r.coll == nil || cap(*r.coll) < n {
		r.growColl(n)
	}
	return (*r.coll)[:n]
}

// growColl grows the collective scratch (cold path: it settles at the largest
// collective the rank has run). Held by pointer, it keeps Rank in the
// 512-byte size class (TestRankSize).
func (r *Rank) growColl(n int) {
	b := make([]byte, n)
	r.coll = &b
}
