package mpi

import (
	"fmt"

	"viampi/internal/simnet"
)

// Isend starts a standard-mode nonblocking send of data to dst (comm rank)
// with the given tag.
func (c *Comm) Isend(dst, tag int, data []byte) (*Request, error) {
	return c.isendCtx(ModeStandard, dst, tag, data, c.ctx)
}

// IsendMode starts a nonblocking send in the given MPI communication mode.
func (c *Comm) IsendMode(mode SendMode, dst, tag int, data []byte) (*Request, error) {
	return c.isendCtx(mode, dst, tag, data, c.ctx)
}

// Send is the blocking standard-mode send.
func (c *Comm) Send(dst, tag int, data []byte) error {
	defer c.r.prof.enter("Send")()
	return c.send(ModeStandard, dst, tag, data, c.ctx)
}

// Ssend is the blocking synchronous-mode send: it completes only after the
// matching receive has started (always rendezvous).
func (c *Comm) Ssend(dst, tag int, data []byte) error {
	defer c.r.prof.enter("Ssend")()
	return c.send(ModeSynchronous, dst, tag, data, c.ctx)
}

// Issend starts a nonblocking synchronous-mode send.
func (c *Comm) Issend(dst, tag int, data []byte) (*Request, error) {
	return c.isendCtx(ModeSynchronous, dst, tag, data, c.ctx)
}

// Rsend is the blocking ready-mode send. The transfer is identical to
// standard mode; the caller asserts a matching receive is already posted.
func (c *Comm) Rsend(dst, tag int, data []byte) error {
	defer c.r.prof.enter("Rsend")()
	return c.send(ModeReady, dst, tag, data, c.ctx)
}

// send is the blocking send in any mode and context.
func (c *Comm) send(mode SendMode, dst, tag int, data []byte, ctx int32) error {
	req, err := c.isendCtx(mode, dst, tag, data, ctx)
	if err != nil {
		return err
	}
	_, err = c.r.reclaim(req, c.r.Wait(req))
	return err
}

// Bsend is the buffered-mode send: it copies data into library-owned storage
// and completes locally at once; the transfer is driven by the progress
// engine and drained at Finalize. It is the only *local* send mode (§3.6).
func (c *Comm) Bsend(dst, tag int, data []byte) error {
	defer c.r.prof.enter("Bsend")()
	cp := append([]byte(nil), data...)
	req, err := c.isendCtx(ModeStandard, dst, tag, cp, c.ctx)
	if err != nil {
		return err
	}
	if !req.done {
		c.r.detached = append(c.r.detached, req)
	}
	return nil
}

func (c *Comm) isendCtx(mode SendMode, dst, tag int, data []byte, ctx int32) (*Request, error) {
	req := c.r.newReq()
	if err := c.startSend(req, mode, dst, tag, data, ctx); err != nil {
		c.r.reclaim(req, nil)
		return nil, err
	}
	return req, nil
}

// startSend starts a send on req: a fresh request, or the one a persistent
// request restarts (PersistentRequest.Start). Nothing refers to req on error.
func (c *Comm) startSend(req *Request, mode SendMode, dst, tag int, data []byte, ctx int32) error {
	r := c.r
	if dst < 0 || dst >= c.Size() {
		return fmt.Errorf("mpi: Isend to rank %d of %d", dst, c.Size())
	}
	world := c.ranks[dst]
	*req = Request{r: r, dstWorld: world, mode: mode, data: data}

	r.obsSend(world, len(data), tag)
	if world == r.rank {
		// Self-send: move bytes through the matching engine directly.
		h := hdr{kind: pktEager, srcRank: int32(c.myrank), tag: int32(tag),
			ctx: ctx, size: int32(len(data))}
		if rq := r.matchPRQ(h); rq != nil {
			r.deliverEager(rq, h, data)
		} else {
			r.enqueueUnexpected(h, data, nil)
		}
		req.complete()
		return nil
	}

	cs, err := r.channel(world)
	if err != nil {
		return err
	}
	cs.userSends++
	if len(data) <= r.cfg.EagerThreshold && mode != ModeSynchronous {
		// Standard mode: the request rides on the packet and completes
		// locally once the data is buffered.
		r.post(cs, r.newPkt(hdr{kind: pktEager, srcRank: int32(c.myrank), tag: int32(tag),
			ctx: ctx, size: int32(len(data))}, data, req))
		return nil
	}

	// Rendezvous (long messages, and every synchronous send).
	r.nextReq++
	id := r.nextReq
	r.sendReqs[id] = req
	cs.pendingRdv++
	r.post(cs, r.newPkt(hdr{kind: pktRts, srcRank: int32(c.myrank), tag: int32(tag),
		ctx: ctx, size: int32(len(data)), sreq: id}, nil, nil))
	return nil
}

// Irecv starts a nonblocking receive into buf from src (comm rank or
// AnySource) with the given tag (or AnyTag).
func (c *Comm) Irecv(buf []byte, src, tag int) (*Request, error) {
	return c.irecvCtx(buf, src, tag, c.ctx)
}

// Recv is the blocking receive.
func (c *Comm) Recv(buf []byte, src, tag int) (Status, error) {
	defer c.r.prof.enter("Recv")()
	req, err := c.Irecv(buf, src, tag)
	if err != nil {
		return Status{}, err
	}
	return c.r.reclaim(req, c.r.Wait(req))
}

func (c *Comm) irecvCtx(buf []byte, src, tag int, ctx int32) (*Request, error) {
	req := c.r.newReq()
	if err := c.startRecv(req, buf, src, tag, ctx); err != nil {
		c.r.reclaim(req, nil)
		return nil, err
	}
	return req, nil
}

// startRecv starts a receive on req, as startSend starts a send.
func (c *Comm) startRecv(req *Request, buf []byte, src, tag int, ctx int32) error {
	r := c.r
	if src != AnySource && (src < 0 || src >= c.Size()) {
		return fmt.Errorf("mpi: Irecv from rank %d of %d", src, c.Size())
	}
	*req = Request{r: r, isRecv: true, buf: buf, src: src, tag: tag, ctx: ctx}

	// Paper §3.5: a receive from ANY_SOURCE forces connections to everyone
	// in the communicator; §4: a specific-source receive initiates the
	// connection to that source (the receiver side of on-demand setup).
	if src == AnySource {
		for _, w := range c.ranks {
			if w == r.rank {
				continue
			}
			if _, err := r.channel(w); err != nil {
				return err
			}
		}
	} else if c.ranks[src] != r.rank {
		if _, err := r.channel(c.ranks[src]); err != nil {
			return err
		}
	}

	if u := r.matchUMQ(req); u != nil {
		switch u.h.kind {
		case pktEager:
			r.deliverEager(req, u.h, u.payload)
		case pktRts:
			r.acceptRendezvous(req, u.h, u.cs)
		default:
			req.failf("mpi: unexpected queue held %s packet", pktKindString(u.h.kind))
		}
		// Read: the entry goes back, keeping its payload buffer.
		u.cs = nil
		r.freeUmsgs = append(r.freeUmsgs, u)
		return nil
	}
	r.prq = append(r.prq, req)
	return nil
}

// matchUMQ finds and removes the first unexpected message matching req.
func (r *Rank) matchUMQ(req *Request) *umsg {
	for i, u := range r.umq {
		if matches(req, u.h) {
			r.umq = append(r.umq[:i], r.umq[i+1:]...)
			if u.cs != nil && u.h.kind == pktRts {
				u.cs.umqRefs-- // self-send/eager entries never touch cs again
			}
			return u
		}
	}
	return nil
}

// Sendrecv performs a combined blocking send and receive, progressing both
// operations together (safe against head-to-head exchanges).
func (c *Comm) Sendrecv(dst, stag int, sdata []byte, src, rtag int, rbuf []byte) (Status, error) {
	defer c.r.prof.enter("Sendrecv")()
	sreq, err := c.Isend(dst, stag, sdata)
	if err != nil {
		return Status{}, err
	}
	rreq, err := c.Irecv(rbuf, src, rtag)
	if err != nil {
		return Status{}, err
	}
	return c.r.waitPair(sreq, rreq)
}

// newReq takes a Request off the free list (or grows it). Every request the
// library makes and waits on itself — a blocking call's, a collective's —
// comes back at reclaim once the wait returns; one from Isend or Irecv is the
// caller's, whose Status and Err stay readable after Wait.
func (r *Rank) newReq() *Request {
	if q := simnet.Pop(&r.freeReqs); q != nil {
		return q
	}
	return growReqs()
}

// growReqs grows the request free list (cold path: the list settles at the
// most requests the library has had outstanding for itself at once).
func growReqs() *Request { return new(Request) }

// reclaim ends a wait on a request the library made for itself: the request is
// complete, so no queue, map or packet refers to it any more, and it goes back
// to the free list holding none of the caller's memory. It returns the
// request's outcome.
func (r *Rank) reclaim(q *Request, err error) (Status, error) {
	st := q.status
	*q = Request{}
	r.freeReqs = append(r.freeReqs, q)
	if err != nil {
		return Status{}, err
	}
	return st, nil
}

// waitPair waits on a send and a receive the library made for itself,
// recycles both and returns the receive's outcome.
func (r *Rank) waitPair(sq, rq *Request) (Status, error) {
	err := r.Waitall(sq, rq)
	r.reclaim(sq, nil)
	return r.reclaim(rq, err)
}

// reqList lends a library call the rank's one list for the requests it is
// about to wait on, empty and with room for n (so appending n allocates
// nothing). The borrower hands it back with doneList, or waitOwned, and calls
// no other borrower in between.
func (r *Rank) reqList(n int) []*Request {
	if cap(r.reqs) < n {
		r.reqs = growReqList(n)
	}
	return r.reqs[:0]
}

// growReqList grows the request list (cold path: it settles at the most
// requests one call has waited on at once).
func growReqList(n int) []*Request { return make([]*Request, 0, n) }

// doneList takes the request list back, keeping no request alive through it.
func (r *Rank) doneList(reqs []*Request) {
	clear(reqs)
	r.reqs = reqs[:0]
}

// waitOwned waits on requests the library made for itself, then recycles them
// and the list that held them.
func (r *Rank) waitOwned(reqs []*Request) error {
	err := r.Waitall(reqs...)
	for _, q := range reqs {
		r.reclaim(q, nil)
	}
	r.doneList(reqs)
	return err
}

// Wait blocks until the request completes, driving progress (MPI_Wait).
func (r *Rank) Wait(q *Request) error {
	defer r.prof.enter("Wait")()
	r.waitProgress(func() bool { return q.done })
	return q.err
}

// Test makes one progress pass and reports whether the request completed.
func (r *Rank) Test(q *Request) (bool, error) {
	r.progress()
	return q.done, q.err
}

// Waitall blocks until every request completes, returning the first error.
func (r *Rank) Waitall(reqs ...*Request) error {
	defer r.prof.enter("Waitall")()
	r.waitProgress(func() bool {
		for _, q := range reqs {
			if !q.done {
				return false
			}
		}
		return true
	})
	for _, q := range reqs {
		if q.err != nil {
			return q.err
		}
	}
	return nil
}

// Iprobe makes one progress pass and reports whether a matching message is
// waiting, without receiving it.
func (c *Comm) Iprobe(src, tag int) (Status, bool) {
	r := c.r
	r.progress()
	probe := &Request{src: src, tag: tag, ctx: c.ctx}
	for _, u := range r.umq {
		if matches(probe, u.h) {
			return Status{Source: int(u.h.srcRank), Tag: int(u.h.tag), Count: int(u.h.size)}, true
		}
	}
	return Status{}, false
}

// Probe blocks until a matching message is waiting (MPI_Probe).
func (c *Comm) Probe(src, tag int) Status {
	defer c.r.prof.enter("Probe")()
	var st Status
	c.r.waitProgress(func() bool {
		s, ok := c.Iprobe(src, tag)
		if ok {
			st = s
		}
		return ok
	})
	return st
}
