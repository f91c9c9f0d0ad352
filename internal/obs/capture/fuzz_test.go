package capture

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// FuzzCaptureReader feeds the bundle decoder bytes from outside: a bundle is
// a file a user hands to viampi-replay. Whatever they are, decoding must not
// panic, must fail only with one of the package's four errors, and must not
// allocate by what a length field claims rather than by what the stream
// holds (PR 14 found a world size that did, by accident). What it accepts
// must mean one thing: the streaming Reader and ReadBundle agree, and the
// events survive a re-encode. The seeds are bundles the package's tests
// write, whole and damaged, so the corpus runs in tier-1.
func FuzzCaptureReader(f *testing.F) {
	whole := encode(f, testHeader(), randomEvents(1, 300))
	f.Add(whole)
	f.Add(encode(f, testHeader(), nil))
	f.Add(whole[:len(whole)/2])     // stops mid-stream
	f.Add(append(whole[:40], 0xFF)) // stops in the header
	// A header whose device name claims a megabyte and holds nothing.
	claim := append([]byte("VIAC\x01\x00\x08\x54"), binary.AppendUvarint(nil, maxString)...)
	f.Add(claim)

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, err := ReadBundle(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// A decoded event is under 100 bytes in memory and at least 8 on the
		// wire, and the slice holding them doubles.
		if grew, most := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+64<<10); grew > most {
			t.Fatalf("decoding %d bytes allocated %d, more than %d: some length field sizes an allocation", len(data), grew, most)
		}
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode failed outside the package's errors: %v", err)
			}
			return
		}
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ReadBundle accepted what NewReader refuses: %v", err)
		}
		for i, want := range b.Events {
			if got, err := rd.Next(); err != nil || got != want {
				t.Fatalf("event %d: the streaming reader has %+v, %v; the bundle %+v", i, got, err, want)
			}
		}
		for i := 0; i < 2; i++ {
			if _, err := rd.Next(); err != io.EOF {
				t.Fatalf("after the last event Next returns %v, want io.EOF and to stay there", err)
			}
		}
		again, err := ReadBundle(bytes.NewReader(encode(t, b.Header, b.Events)))
		if err != nil || again.Header != b.Header || len(again.Events) != len(b.Events) {
			t.Fatalf("an accepted bundle does not survive a re-encode: %v", err)
		}
		for i := range b.Events {
			if again.Events[i] != b.Events[i] {
				t.Fatalf("event %d changed across a re-encode: %+v, was %+v", i, again.Events[i], b.Events[i])
			}
		}
	})
}
