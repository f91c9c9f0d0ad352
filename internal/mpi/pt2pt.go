package mpi

import (
	"fmt"
)

// Isend starts a standard-mode nonblocking send of data to dst (comm rank)
// with the given tag.
func (c *Comm) Isend(dst, tag int, data []byte) (Request, error) {
	return c.isendCtx(ModeStandard, dst, tag, data, c.ctx)
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
func (c *Comm) Issend(dst, tag int, data []byte) (Request, error) {
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
	h, err := c.isendCtx(mode, dst, tag, data, ctx)
	if err != nil {
		return err
	}
	_, err = c.r.Wait(h)
	return err
}

// Bsend is the buffered-mode send: it copies data into library-owned storage
// and completes locally at once; the transfer is driven by the progress
// engine and drained at Finalize. It is the only *local* send mode (§3.6).
// No handle is kept: until the send is out, its packet sits in the park FIFO,
// the flow queue or pendingClose, or its request awaits CTS in sendReqs, and
// finalize drains all four; a request no wait ends is the collector's.
func (c *Comm) Bsend(dst, tag int, data []byte) error {
	defer c.r.prof.enter("Bsend")()
	_, err := c.isendCtx(ModeStandard, dst, tag, append([]byte(nil), data...), c.ctx)
	return err
}

// isendCtx starts a send on a request off the free list.
func (c *Comm) isendCtx(mode SendMode, dst, tag int, data []byte, ctx int32) (Request, error) {
	q := c.r.newReq()
	if err := c.startSend(q, mode, dst, tag, data, ctx); err != nil {
		c.r.release(q)
		return Request{}, err
	}
	return Request{q, q.gen}, nil
}

// startSend starts a send on a fresh request. Nothing refers to q on error.
func (c *Comm) startSend(q *request, mode SendMode, dst, tag int, data []byte, ctx int32) error {
	r := c.r
	if dst < 0 || dst >= c.Size() {
		return fmt.Errorf("mpi: Isend to rank %d of %d", dst, c.Size())
	}
	world := c.ranks[dst]
	q.data = data

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
		q.complete()
		return nil
	}

	cs, err := r.channel(world)
	if err != nil {
		return err
	}
	cs.userSends = true
	if len(data) <= r.cfg.EagerThreshold && mode != ModeSynchronous {
		// Standard mode: the request rides on the packet and completes
		// locally once the data is buffered.
		r.post(cs, r.newPkt(hdr{kind: pktEager, srcRank: int32(c.myrank), tag: int32(tag),
			ctx: ctx, size: int32(len(data))}, data, q))
		return nil
	}

	// Rendezvous (long messages, and every synchronous send).
	r.nextReq++
	id := r.nextReq
	if r.sendReqs == nil {
		r.sendReqs = growRdvTable()
	}
	r.sendReqs[id] = q
	cs.pendingRdv++
	r.post(cs, r.newPkt(hdr{kind: pktRts, srcRank: int32(c.myrank), tag: int32(tag),
		ctx: ctx, size: int32(len(data)), sreq: id}, nil, nil))
	return nil
}

// Irecv starts a nonblocking receive into buf from src (comm rank or
// AnySource) with the given tag (or AnyTag).
func (c *Comm) Irecv(buf []byte, src, tag int) (Request, error) {
	return c.irecvCtx(buf, src, tag, c.ctx)
}

// Recv is the blocking receive.
func (c *Comm) Recv(buf []byte, src, tag int) (Status, error) {
	defer c.r.prof.enter("Recv")()
	h, err := c.Irecv(buf, src, tag)
	if err != nil {
		return Status{}, err
	}
	return c.r.Wait(h)
}

// irecvCtx starts a receive on a request off the free list.
func (c *Comm) irecvCtx(buf []byte, src, tag int, ctx int32) (Request, error) {
	q := c.r.newReq()
	if err := c.startRecv(q, buf, src, tag, ctx); err != nil {
		c.r.release(q)
		return Request{}, err
	}
	return Request{q, q.gen}, nil
}

// startRecv starts a receive on a fresh request, as startSend starts a send.
func (c *Comm) startRecv(req *request, buf []byte, src, tag int, ctx int32) error {
	r := c.r
	if src != AnySource && (src < 0 || src >= c.Size()) {
		return fmt.Errorf("mpi: Irecv from rank %d of %d", src, c.Size())
	}
	req.buf, req.src, req.tag, req.ctx = buf, src, tag, ctx

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
			req.failf("mpi: unexpected queue held %s packet", u.h.kind)
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
func (r *Rank) matchUMQ(req *request) *umsg {
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
	return c.sendrecv(dst, stag, sdata, src, rtag, rbuf, c.ctx)
}

// sendrecv starts the send, then the receive, and waits on both in one
// Waitall, returning the receive's outcome.
func (c *Comm) sendrecv(dst, stag int, sdata []byte, src, rtag int, rbuf []byte, ctx int32) (Status, error) {
	var reqs [2]Request
	var err error
	if reqs[0], err = c.isendCtx(ModeStandard, dst, stag, sdata, ctx); err != nil {
		return Status{}, err
	}
	if reqs[1], err = c.irecvCtx(rbuf, src, rtag, ctx); err != nil {
		return Status{}, err
	}
	return c.r.waitall(reqs[:])
}

// newReq takes a request off the free list (or grows it).
func (r *Rank) newReq() *request {
	if r.freeReqs == nil {
		r.growReqs()
	}
	q := r.freeReqs
	r.freeReqs, q.next = q.next, nil
	return q
}

// growReqs adds a slab of as many requests as the rank has made so far to the
// free list (cold path: the list reaches the most requests the rank has had
// outstanding at once in a logarithmic number of allocations).
func (r *Rank) growReqs() {
	slab := make([]request, max(1, r.reqsMade))
	r.reqsMade += len(slab)
	for i := range slab {
		r.release(&slab[i])
	}
}

// release ends a request's life once a wait has read its outcome, or once it
// failed to start: nothing refers to it any more, so it goes back to the free
// list holding none of the caller's memory, a generation on, so that every
// handle given out for it reads as stale.
func (r *Rank) release(q *request) {
	*q = request{gen: q.gen + 1, next: r.freeReqs}
	r.freeReqs = q
}

// finish releases a request a wait has seen complete and returns its outcome.
func (r *Rank) finish(q *request) (Status, error) {
	st, err := q.status, q.err
	r.release(q)
	if err != nil {
		return Status{}, err
	}
	return st, nil
}

// reqList lends a library call the rank's one list for the requests it is
// about to wait on, empty and with room for n (so appending n allocates
// nothing). The borrower calls no other borrower before its Waitall.
func (r *Rank) reqList(n int) []Request {
	if cap(r.reqs) < n {
		r.reqs = growReqList(n)
	}
	return r.reqs[:0]
}

// growReqList grows the request list (cold path: it settles at the most
// requests one call has waited on at once).
func growReqList(n int) []Request { return make([]Request, 0, n) }

// Wait blocks until the request completes, driving progress (MPI_Wait), and
// returns its outcome; the handle is stale from then on. A null handle
// returns at once.
func (r *Rank) Wait(h Request) (Status, error) {
	if h.q == nil {
		return Status{}, nil
	}
	if h.stale() {
		return Status{}, errStale
	}
	defer r.prof.enter("Wait")()
	q := h.q
	r.waitProgress(func() bool { return q.done })
	return r.finish(q)
}

// Test makes one progress pass and reports whether the request completed,
// with its outcome if so; the handle is then stale, as after Wait. A null
// handle reports completion at once.
func (r *Rank) Test(h Request) (bool, Status, error) {
	if h.q == nil {
		return true, Status{}, nil
	}
	if h.stale() {
		return false, Status{}, errStale
	}
	r.progress()
	if !h.q.done {
		return false, Status{}, nil
	}
	st, err := r.finish(h.q)
	return true, st, err
}

// Waitall blocks until every request completes, returning the first error;
// every handle is stale from then on. Null handles are passed over, but even
// a list of nothing else makes one progress pass.
func (r *Rank) Waitall(reqs ...Request) error {
	_, err := r.waitall(reqs)
	return err
}

// waitall is Waitall, also returning the last request's status (sendrecv's
// receive). A stale handle fails it before any progress is made.
func (r *Rank) waitall(reqs []Request) (Status, error) {
	for _, h := range reqs {
		if h.stale() {
			return Status{}, errStale
		}
	}
	defer r.prof.enter("Waitall")()
	r.waitProgress(func() bool {
		for _, h := range reqs {
			if h.q != nil && !h.q.done {
				return false
			}
		}
		return true
	})
	var st Status
	var err error
	for _, h := range reqs {
		if h.live() { // not null, nor listed twice and finished already
			s, e := r.finish(h.q)
			if err == nil {
				st, err = s, e // finish's status is empty with an error
			}
		}
	}
	return st, err
}

// Iprobe makes one progress pass and reports whether a matching message is
// waiting, without receiving it.
func (c *Comm) Iprobe(src, tag int) (Status, bool) {
	r := c.r
	r.progress()
	probe := &request{src: src, tag: tag, ctx: c.ctx}
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
