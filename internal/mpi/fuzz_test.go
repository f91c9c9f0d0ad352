package mpi

import (
	"bytes"
	"testing"
)

// FuzzPacketDecode checks that decode never panics and that
// encode(decode(x)) is stable for valid packets.
func FuzzPacketDecode(f *testing.F) {
	f.Add(encodeInto(nil, hdr{kind: pktEager, srcRank: 1, tag: 2, ctx: 3, size: 4}, []byte("hello")))
	f.Add(encodeInto(nil, hdr{kind: pktRts, size: 1 << 20, sreq: 42}, nil))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := decode(data)
		if err != nil {
			return // short packets are rejected; that is the contract
		}
		// Round-trip through encode: the decoded header and payload must
		// survive (padding bytes are canonicalized to zero by encode, so we
		// compare decoded forms, not raw bytes).
		h2, p2, err := decode(encodeInto(nil, h, payload))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if h2 != h || !bytes.Equal(p2, payload) {
			t.Fatalf("round trip mismatch: %+v/%x vs %+v/%x", h2, p2, h, payload)
		}
	})
}

// FuzzMatching checks the matcher against arbitrary header fields: a posted
// request with explicit source and tag must only match exactly, and
// wildcards must match anything within the context.
func FuzzMatching(f *testing.F) {
	f.Add(int32(0), int32(0), int32(0), 0, 0, int32(0))
	f.Add(int32(3), int32(7), int32(1), -1, -1, int32(1))
	f.Fuzz(func(t *testing.T, src, tag, ctx int32, wantSrc, wantTag int, wantCtx int32) {
		req := &request{src: wantSrc, tag: wantTag, ctx: wantCtx}
		h := hdr{srcRank: src, tag: tag, ctx: ctx}
		got := matches(req, h)
		want := ctx == wantCtx &&
			(wantSrc == AnySource || int32(wantSrc) == src) &&
			(wantTag == AnyTag || int32(wantTag) == tag)
		if got != want {
			t.Fatalf("matches(%+v, %+v) = %v, want %v", req, h, got, want)
		}
	})
}
