package mpi

import "fmt"

// Persistent requests (MPI_Send_init / MPI_Recv_init / MPI_Start):
// half-channels that an iterative code sets up once and restarts every
// iteration. The real NPB SP and BT use persistent communication for their
// face exchanges; the proxies exercise this path when built against it.

// PersistentRequest is an inactive communication template; Start activates
// it, producing the same lifecycle as an ordinary nonblocking request.
type PersistentRequest struct {
	c      *Comm
	isRecv bool
	buf    []byte // recv landing buffer, or send payload
	peer   int
	tag    int

	h Request // the latest activation's handle
}

// SendInit creates a persistent standard-mode send template.
func (c *Comm) SendInit(dst, tag int, data []byte) (*PersistentRequest, error) {
	if dst < 0 || dst >= c.Size() {
		return nil, fmt.Errorf("mpi: SendInit to rank %d of %d", dst, c.Size())
	}
	return &PersistentRequest{c: c, buf: data, peer: dst, tag: tag}, nil
}

// RecvInit creates a persistent receive template.
func (c *Comm) RecvInit(buf []byte, src, tag int) (*PersistentRequest, error) {
	if src != AnySource && (src < 0 || src >= c.Size()) {
		return nil, fmt.Errorf("mpi: RecvInit from rank %d of %d", src, c.Size())
	}
	return &PersistentRequest{c: c, isRecv: true, buf: buf, peer: src, tag: tag}, nil
}

// Start activates the template on a request off the free list, as Isend or
// Irecv would. Starting a template whose activation no wait has completed yet
// is an error; a Start that fails leaves the template inactive.
func (p *PersistentRequest) Start() error {
	if p.h.live() {
		return fmt.Errorf("mpi: Start on active persistent request")
	}
	var err error
	if p.isRecv {
		p.h, err = p.c.irecvCtx(p.buf, p.peer, p.tag, p.c.ctx)
	} else {
		p.h, err = p.c.isendCtx(ModeStandard, p.peer, p.tag, p.buf, p.c.ctx)
	}
	return err
}

// Request returns the handle of the template's latest activation, to Wait or
// Test on as with any nonblocking request: null before the first Start and
// after a failed one, stale once a wait has completed it.
func (p *PersistentRequest) Request() Request { return p.h }

// Startall activates a set of persistent requests (MPI_Startall).
func Startall(ps ...*PersistentRequest) error {
	for _, p := range ps {
		if err := p.Start(); err != nil {
			return err
		}
	}
	return nil
}

// WaitallPersistent waits for every listed persistent request's current
// activation, passing over inactive ones.
func (r *Rank) WaitallPersistent(ps ...*PersistentRequest) error {
	reqs := r.reqList(len(ps))
	for _, p := range ps {
		if p.h.live() {
			reqs = append(reqs, p.h)
		}
	}
	return r.Waitall(reqs...)
}
