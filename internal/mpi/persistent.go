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
	mode   SendMode

	req     Request // the handle: every activation runs on this one request
	started bool    // req holds an activation (not before the first Start, nor after a failed one)
}

// SendInit creates a persistent standard-mode send template.
func (c *Comm) SendInit(dst, tag int, data []byte) (*PersistentRequest, error) {
	if dst < 0 || dst >= c.Size() {
		return nil, fmt.Errorf("mpi: SendInit to rank %d of %d", dst, c.Size())
	}
	return &PersistentRequest{c: c, buf: data, peer: dst, tag: tag, mode: ModeStandard}, nil
}

// RecvInit creates a persistent receive template.
func (c *Comm) RecvInit(buf []byte, src, tag int) (*PersistentRequest, error) {
	if src != AnySource && (src < 0 || src >= c.Size()) {
		return nil, fmt.Errorf("mpi: RecvInit from rank %d of %d", src, c.Size())
	}
	return &PersistentRequest{c: c, isRecv: true, buf: buf, peer: src, tag: tag}, nil
}

// Start activates the template. Starting an already-active request is an
// error (the previous activation must complete first). The activation runs on
// the template's own request, which no queue refers to once it has completed;
// a Start that fails leaves the template inactive.
func (p *PersistentRequest) Start() error {
	if p.started && !p.req.done {
		return fmt.Errorf("mpi: Start on active persistent request")
	}
	var err error
	if p.isRecv {
		err = p.c.startRecv(&p.req, p.buf, p.peer, p.tag, p.c.ctx)
	} else {
		err = p.c.startSend(&p.req, p.mode, p.peer, p.tag, p.buf, p.c.ctx)
	}
	p.started = err == nil
	if err != nil {
		// A handle kept from an earlier Start reads as inactive: complete,
		// with an empty status, and no half-started activation to wait on.
		p.req = Request{done: true}
	}
	return err
}

// Request returns the template's handle — one *Request across all its
// activations, as MPI's persistent handle is — or nil while the template is
// inactive (before the first Start, or after a failed one). Wait/Test on it as
// with any nonblocking request; its Status and Err are the latest
// activation's.
func (p *PersistentRequest) Request() *Request {
	if !p.started {
		return nil
	}
	return &p.req
}

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
		if q := p.Request(); q != nil {
			reqs = append(reqs, q)
		}
	}
	err := r.Waitall(reqs...)
	r.doneList(reqs)
	return err
}
