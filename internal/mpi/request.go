package mpi

import (
	"errors"
	"fmt"
)

// AnySource matches a message from any sender (MPI_ANY_SOURCE).
// AnyTag matches any tag (MPI_ANY_TAG).
const (
	AnySource = -1
	AnyTag    = -1
)

// SendMode selects the MPI point-to-point send mode.
type SendMode int

// The four MPI communication modes (§3.6 of the paper). Standard completes
// locally once the eager data is buffered (or, above the threshold, when the
// rendezvous finishes); Synchronous always completes only after the matching
// receive started (rendezvous); Ready requires a matching receive to be
// already posted; Buffered always completes locally.
const (
	ModeStandard SendMode = iota
	ModeSynchronous
	ModeReady
	ModeBuffered
)

func (m SendMode) String() string {
	switch m {
	case ModeStandard:
		return "standard"
	case ModeSynchronous:
		return "synchronous"
	case ModeReady:
		return "ready"
	case ModeBuffered:
		return "buffered"
	default:
		return fmt.Sprintf("SendMode(%d)", int(m))
	}
}

// Status describes a completed receive.
type Status struct {
	Source int // matched sender's rank in the communicator
	Tag    int
	Count  int // bytes received
}

// Request is a handle to a nonblocking operation (MPI_Request). The zero
// value is MPI_REQUEST_NULL: Wait, Test and Waitall treat it as complete.
//
// As in MPI, the wait that completes an operation ends it: Wait, a Test that
// reports completion, or Waitall returns the outcome and gives the request
// back to the rank's free list, and any copy of the handle kept past that
// point is stale — passing it to a wait again returns an error instead of
// reading whatever operation the request serves next.
type Request struct {
	q   *request
	gen uint32
}

// stale reports whether a wait has already completed the handle's operation.
func (h Request) stale() bool { return h.q != nil && h.q.gen != h.gen }

// live reports whether the handle names an operation no wait has completed.
func (h Request) live() bool { return h.q != nil && h.q.gen == h.gen }

// errStale is what a wait returns for a handle whose operation an earlier
// wait completed.
var errStale = errors.New("mpi: request handle used after the wait that completed it")

// request is one nonblocking operation's state. Every request — a blocking
// call's, a collective's, an Isend's or Irecv's, a persistent activation's —
// comes off Rank.freeReqs and goes back there from the wait that completes it
// (release), which bumps gen so the handles given out for it read as stale.
type request struct {
	gen  uint32
	done bool
	err  error

	// receive fields
	buf    []byte
	src    int // wanted source (comm rank) or AnySource
	tag    int // wanted tag or AnyTag
	ctx    int32
	status Status

	// rendezvous receive state
	rkey    uint64
	rmem    int64 // via.MemHandle, kept as int64 to avoid the import here
	rdvSize int

	// send fields
	data []byte

	next *request // the free list's link, while on it
}

func (q *request) complete() {
	q.done = true
}

func (q *request) failf(format string, args ...interface{}) {
	if q.err == nil {
		q.err = fmt.Errorf(format, args...)
	}
	q.done = true
}
