package via

import (
	"errors"
	"fmt"

	"viampi/internal/simnet"
)

// Status is the completion status of a descriptor.
type Status uint8

// Descriptor completion statuses.
const (
	StatusPending      Status = iota // not yet complete
	StatusSuccess                    // transfer completed
	StatusNotConnected               // send posted to an unconnected VI: discarded (VIPL semantics)
	StatusDisconnected               // connection went away before completion
	StatusErrorState                 // VI entered the error state (e.g. receive with no posted descriptor)
)

func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusSuccess:
		return "success"
	case StatusNotConnected:
		return "not-connected"
	case StatusDisconnected:
		return "disconnected"
	case StatusErrorState:
		return "error-state"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ViState is the connection state of a VI endpoint.
type ViState uint8

// VI endpoint states, mirroring the VIPL connection state machine.
const (
	ViIdle       ViState = iota // created, not connected
	ViConnecting                // peer/client request outstanding
	ViConnected
	ViError        // reliable-delivery violation (receive with no descriptor)
	ViDisconnected // remote side went away
	ViClosed
)

func (s ViState) String() string {
	switch s {
	case ViIdle:
		return "idle"
	case ViConnecting:
		return "connecting"
	case ViConnected:
		return "connected"
	case ViError:
		return "error"
	case ViDisconnected:
		return "disconnected"
	case ViClosed:
		return "closed"
	default:
		return fmt.Sprintf("ViState(%d)", int(s))
	}
}

// Errors returned by the via layer.
var (
	ErrTooManyVIs     = errors.New("via: VI limit for this port exceeded")
	ErrPinnedLimit    = errors.New("via: registered-memory limit exceeded")
	ErrBadState       = errors.New("via: operation invalid in current VI state")
	ErrRejected       = errors.New("via: connection request rejected")
	ErrTimeout        = errors.New("via: operation timed out")
	ErrClosed         = errors.New("via: port or VI closed")
	ErrUnknownRdmaKey = errors.New("via: unknown RDMA target key")
	ErrNoRoom         = errors.New("via: receive has no room: no buffer, or a pool of no capacity")
)

// Addr is the network address of a port (a process's NIC handle).
type Addr struct {
	Ep int // fabric endpoint id
}

// PeerRequest describes an incoming connection request that has not yet been
// matched by a local request.
type PeerRequest struct {
	From     Addr
	Disc     uint64 // connection discriminator
	RemoteVi int    // requester's VI id
}

// Descriptor is a work request posted to a VI queue. Exactly one of the
// send/receive/RDMA uses applies per descriptor. The Buf slice must lie in a
// registered memory region of the posting port.
//
// A VI's work queues are linked through their descriptors, as VIPL's control
// segment carries the Next link: a posted descriptor is on exactly one queue
// until it is reaped or its VI is closed, and posting it again before then is
// refused (ErrBadState). The network's stock of landing descriptors is a stack
// through the same link.
//
// A receive posted with PostRecv brings its landing buffer: a message may be
// as long as len(Buf), and Len is not read. The receives of a counted pool
// (PostRecvPool) have no descriptor while they wait: the port lends one of the
// network's stock to each message whose first fragment claims a receive, with a
// buffer as long as the message (not the pool's capacity), the completion names
// it, and the owner hands both back with Port.ReturnLanding once it has read
// Buf[:XferLen]. Registration is accounted by size alone (MemoryRegistry), so a
// pool pins what as many backed receives of its capacity do, whatever the host
// holds.
type Descriptor struct {
	Buf []byte // data to send, or receive landing buffer
	Len int    // bytes to send (unused by a receive)

	// RDMA write fields (send-queue descriptors only).
	RdmaKey    uint64 // remote target key from RegisterRdmaTarget
	RdmaOffset int    // byte offset within the remote target

	Status Status
	lent   bool // the network's, on loan to a pool receive
	// gen counts posts. A send's completion event carries the generation it
	// was scheduled under, so an event outlived by its post (the VI failed the
	// descriptor and the owner posted it again) completes nothing. It shares
	// Status's word, which keeps the struct at 96 bytes with next: a stale
	// event would need 2^32 posts of one descriptor inside one NIC service
	// time to match.
	gen     uint32
	XferLen int // bytes actually transferred

	// UserPtr lets upper layers attach context (e.g. the MPI request).
	UserPtr interface{}

	vi   *VI
	next *Descriptor // the queue or landing-stock link: the next descriptor, nil at the end
}

// Done reports whether the descriptor has completed (any status).
func (d *Descriptor) Done() bool { return d.Status != StatusPending }

// VI returns the endpoint this descriptor was posted to, nil before posting.
func (d *Descriptor) VI() *VI { return d.vi }

// wireKind says what a frame is: one of the closed set below, which
// Port.dispatch must handle whole.
type wireKind uint8

// wire message kinds
const (
	kindConnReq wireKind = iota + 1
	kindConnAck
	kindConnNack
	kindDisc
	kindData
	kindRdma
	kindOob
)

// wireMsg is the payload carried inside a fabric frame, and the scheduler
// event for both of the frame's NIC-service hops (see Fire). Every frame, on
// the NIC path or the out-of-band one, comes from the Network's free list and
// returns to it once the receiving port has dispatched it (an out-of-band
// one, once RecvOob's caller is done with it); callers describe a frame with
// a wireMsg literal holding the header fields, which takeFrame copies into a
// recycled one.
type wireMsg struct {
	kind   wireKind
	held   bool // in flight: parked in a VI's preConnQ or its port's out-of-band queue, which now owns the frame (shares kind's word)
	srcEp  int
	srcVi  int
	dstVi  int
	disc   uint64
	seq    uint64 // per-VI data sequence, for assertions
	offset int    // fragment offset within the message
	total  int    // total message length
	data   []byte // fragment payload: the sender's bytes, copied into buf at post time (nil for an RDMA write: see PostRdmaWrite)

	rdmaKey uint64 // RDMA target key

	// In-flight state, owned by sendFrame/handleFrame.
	port  *Port           // whose NIC is serving the frame: the sender's, then the receiver's
	dstEp int             // destination endpoint
	size  int             // bytes on the wire
	extra simnet.Duration // injected handshake delay (FaultPlan)
	buf   []byte          // backing store of data, kept across recycling
	next  *wireMsg        // free-list link
}
