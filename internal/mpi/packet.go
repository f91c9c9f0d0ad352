package mpi

import (
	"encoding/binary"
	"fmt"
)

// pktKind says what a packet is: one of the closed set below, which
// Rank.handlePacket must handle whole. On the wire it is the header's first
// byte.
type pktKind uint8

// Packet kinds exchanged between MPI peers over a VIA channel.
const (
	pktEager  pktKind = iota + 1 // header + payload, fits under the eager threshold
	pktRts                       // rendezvous request-to-send (no payload)
	pktCts                       // rendezvous clear-to-send (carries the RDMA key)
	pktFin                       // rendezvous finished (data has been RDMA-written)
	pktCredit                    // explicit flow-control credit return

	// Graceful channel teardown (VI-cap eviction). BYE asks the peer to
	// quiesce and acknowledge; ACK confirms both sides are drained and the
	// sender may close the VI; NACK refuses (the peer has traffic in
	// flight) and the would-be evictor abandons the eviction.
	pktBye
	pktByeAck
	pktByeNack
)

func (k pktKind) String() string {
	switch k {
	case pktEager:
		return "eager"
	case pktRts:
		return "rts"
	case pktCts:
		return "cts"
	case pktFin:
		return "fin"
	case pktCredit:
		return "credit"
	case pktBye:
		return "bye"
	case pktByeAck:
		return "bye-ack"
	case pktByeNack:
		return "bye-nack"
	default:
		return fmt.Sprintf("pkt(%d)", uint8(k))
	}
}

// hdrSize is the fixed wire header length in bytes.
const hdrSize = 48

// hdr is the MPI packet header. srcRank and tag/ctx implement MPICH-style
// (context, source, tag) matching; credits piggybacks flow-control returns
// on every packet; sreq/rreq correlate the rendezvous three-way handshake.
type hdr struct {
	kind    pktKind
	srcRank int32 // sender's rank within the communicator identified by ctx
	tag     int32
	ctx     int32 // communicator context id
	size    int32 // eager: payload bytes; RTS: total message bytes
	credits int32 // freed receive buffers being returned to the sender
	sreq    int64 // sender-side request id (RTS/CTS)
	rreq    int64 // receiver-side request id (CTS/FIN)
	rkey    uint64
}

// encodeInto writes the header and payload into b's storage, growing it when
// it is too small, and returns the wire buffer. b is a recycled buffer, so
// all hdrSize header bytes are written, the padding too.
func encodeInto(b []byte, h hdr, payload []byte) []byte {
	n := hdrSize + len(payload)
	if cap(b) < n {
		b = growWire(n)
	}
	b = b[:n]
	b[0], b[1], b[2], b[3] = byte(h.kind), 0, 0, 0
	le := binary.LittleEndian
	le.PutUint32(b[4:], uint32(h.srcRank))
	le.PutUint32(b[8:], uint32(h.tag))
	le.PutUint32(b[12:], uint32(h.ctx))
	le.PutUint32(b[16:], uint32(h.size))
	le.PutUint32(b[20:], uint32(h.credits))
	le.PutUint64(b[24:], uint64(h.sreq))
	le.PutUint64(b[32:], uint64(h.rreq))
	le.PutUint64(b[40:], h.rkey)
	copy(b[hdrSize:], payload)
	return b
}

// growWire allocates a wire buffer (cold path: a recycled descriptor's
// buffer settles at the largest packet it has carried).
func growWire(n int) []byte { return make([]byte, n) }

// decode parses a wire buffer into its header and payload view.
func decode(b []byte) (hdr, []byte, error) {
	if len(b) < hdrSize {
		return hdr{}, nil, fmt.Errorf("mpi: short packet (%d bytes)", len(b))
	}
	le := binary.LittleEndian
	h := hdr{
		kind:    pktKind(b[0]),
		srcRank: int32(le.Uint32(b[4:])),
		tag:     int32(le.Uint32(b[8:])),
		ctx:     int32(le.Uint32(b[12:])),
		size:    int32(le.Uint32(b[16:])),
		credits: int32(le.Uint32(b[20:])),
		sreq:    int64(le.Uint64(b[24:])),
		rreq:    int64(le.Uint64(b[32:])),
		rkey:    le.Uint64(b[40:]),
	}
	return h, b[hdrSize:], nil
}
