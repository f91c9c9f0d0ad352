package capture

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"viampi/internal/obs"
)

func testHeader() Header {
	return Header{
		Clock:  ClockVirtual,
		World:  8,
		Seed:   42,
		Device: "clan",
		Policy: "ondemand",
		Label:  "CG.S",
		Config: "bench=CG class=S np=8 device=clan conn=ondemand wait=polling seed=42",
	}
}

// randomEvents generates a reproducible stream exercising every field shape:
// all kinds, negative payloads, repeated and fresh labels, zero and large
// time deltas, and occasional backwards wall-clock stamps.
func randomEvents(seed int64, n int) []obs.Event {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"", "MPI_Send", "MPI_Recv", "pinned_bytes", "compute", "x"}
	evs := make([]obs.Event, n)
	t := int64(0)
	for i := range evs {
		switch rng.Intn(8) {
		case 0: // same instant
		case 1:
			t -= rng.Int63n(50) // slightly out of order (wall-clock capture)
		default:
			t += rng.Int63n(100_000)
		}
		name := names[rng.Intn(len(names))]
		if rng.Intn(64) == 0 {
			name = string(rune('a'+rng.Intn(26))) + "-fresh" // grow the intern table
		}
		evs[i] = obs.Event{
			T:    t,
			Kind: obs.Kind(1 + rng.Intn(NumKinds)),
			Rank: int32(rng.Intn(16)),
			Peer: int32(rng.Intn(17) - 1),
			A:    rng.Int63n(1<<40) - (1 << 39),
			B:    rng.Int63n(1 << 30),
			C:    int64(i),
			Name: name,
		}
	}
	return evs
}

func encode(t testing.TB, h Header, evs []obs.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, e := range evs {
		w.Consume(e)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if w.Bytes() != int64(buf.Len()) {
		t.Fatalf("Bytes() = %d, buffer holds %d", w.Bytes(), buf.Len())
	}
	return buf.Bytes()
}

// TestRoundTrip is the encode/decode property test: for several sizes and
// seeds, every decoded event must equal its original exactly, and the header
// must survive unchanged.
func TestRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000, 20000} {
		for seed := int64(1); seed <= 3; seed++ {
			evs := randomEvents(seed, n)
			raw := encode(t, testHeader(), evs)
			b, err := ReadBundle(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("n=%d seed=%d: ReadBundle: %v", n, seed, err)
			}
			want := testHeader()
			want.Version = Version // stamped by NewWriter
			if b.Header != want {
				t.Fatalf("n=%d seed=%d: header changed: %+v", n, seed, b.Header)
			}
			if len(b.Events) != len(evs) {
				t.Fatalf("n=%d seed=%d: %d events decoded, want %d", n, seed, len(b.Events), n)
			}
			for i := range evs {
				if b.Events[i] != evs[i] {
					t.Fatalf("n=%d seed=%d: event %d: got %+v want %+v", n, seed, i, b.Events[i], evs[i])
				}
			}
		}
	}
}

// TestEncodeDeterministic: the same stream encodes to the same bytes.
func TestEncodeDeterministic(t *testing.T) {
	evs := randomEvents(9, 5000)
	a := encode(t, testHeader(), evs)
	b := encode(t, testHeader(), evs)
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same stream differ")
	}
}

// TestHeaderRoundTripWall checks the wall-clock header variant and the
// digest accessor.
func TestHeaderRoundTripWall(t *testing.T) {
	h := Header{Clock: ClockWall, World: 4, Device: "tcp", Policy: "static-p2p", Label: "tcpring"}
	raw := encode(t, h, nil)
	b, err := ReadBundle(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	if b.Header.Clock != ClockWall || b.Header.Clock.String() != "wall" {
		t.Fatalf("clock = %v", b.Header.Clock)
	}
	if got, want := b.Header.Digest(), h.Digest(); got != want || len(got) != 16 {
		t.Fatalf("digest round-trip: got %q want %q", got, want)
	}
}

// TestClockStrings pins every clock's label; a value that is no clock falls
// back to "unknown".
func TestClockStrings(t *testing.T) {
	for c, want := range map[Clock]string{ClockVirtual: "virtual", ClockWall: "wall", 9: "unknown"} {
		if got := c.String(); got != want {
			t.Errorf("Clock(%d).String() = %q, want %q", uint8(c), got, want)
		}
	}
}

// TestCloseDetachesFromBus: a sealed bundle takes no more events from the
// bus it was attached to.
func TestCloseDetachesFromBus(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus()
	w.Attach(bus)
	bus.Emit(obs.Event{T: 1, Kind: obs.EvGauge, A: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, size := w.Events(), w.Bytes()
	bus.Emit(obs.Event{T: 2, Kind: obs.EvGauge, A: 2})
	if w.Events() != events || w.Bytes() != size {
		t.Fatalf("after Close: %d events, %d bytes; want %d, %d", w.Events(), w.Bytes(), events, size)
	}
}

// TestTruncation cuts a valid bundle at every interesting prefix length and
// requires a classified error — never a silent success, never a panic.
func TestTruncation(t *testing.T) {
	evs := randomEvents(4, 200)
	raw := encode(t, testHeader(), evs)
	for cut := 0; cut < len(raw); cut++ {
		if cut > 300 && cut < len(raw)-300 && cut%97 != 0 {
			continue // sample the middle, cover both ends densely
		}
		_, err := ReadBundle(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("cut=%d: truncated bundle decoded without error", cut)
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: unclassified error %v", cut, err)
		}
	}
}

// TestCorruption flips bytes across the whole bundle: every read must either
// fail with a classified error or — when the flip lands in a value varint —
// still decode cleanly; what it must never do is panic or mislabel the file.
func TestCorruption(t *testing.T) {
	evs := randomEvents(5, 100)
	raw := encode(t, testHeader(), evs)
	for pos := 0; pos < len(raw); pos += 7 {
		mut := bytes.Clone(raw)
		mut[pos] ^= 0xff
		b, err := ReadBundle(bytes.NewReader(mut))
		if err == nil {
			// A flip inside an event payload varint is legitimately
			// undetectable; the decode must still be shaped sanely.
			if len(b.Events) > len(evs) {
				t.Fatalf("pos=%d: corrupt decode grew the stream: %d events", pos, len(b.Events))
			}
			continue
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) &&
			!errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("pos=%d: unclassified error %v", pos, err)
		}
	}
}

// TestCorruptionSpecific pins the individual guards: magic, version, clock,
// digest, kind range, label index, trailer count, trailing garbage.
func TestCorruptionSpecific(t *testing.T) {
	evs := []obs.Event{{T: 10, Kind: obs.EvMsgSend, Rank: 1, Peer: 2, A: 64, C: 0, Name: "m"}}
	raw := encode(t, testHeader(), evs)

	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadMagic},
		{"version", func(b []byte) []byte { b[4] = 99; return b }, ErrVersion},
		{"clock", func(b []byte) []byte { b[5] = 9; return b }, ErrCorrupt},
		{"world", func(b []byte) []byte { // one-byte world 8 → a ten-byte 2^63
			return append(append(b[:6:6], binary.AppendUvarint(nil, 1<<63)...), b[7:]...)
		}, ErrCorrupt},
		{"digest", func(b []byte) []byte {
			b[bytes.Index(b, []byte("bench="))] ^= 1 // config text no longer matches its digest
			return b
		}, ErrCorrupt},
		{"kind", func(b []byte) []byte {
			b[headerLen(b)] = 0xef // first event's kind byte far beyond NumKinds
			return b
		}, ErrCorrupt},
		{"trailer", func(b []byte) []byte { b[len(b)-1] = 7; return b }, ErrCorrupt}, // event count lie
		{"trailing", func(b []byte) []byte { return append(b, 0xaa) }, ErrCorrupt},
		{"empty", func(b []byte) []byte { return nil }, ErrBadMagic},
	}
	for _, tc := range cases {
		_, err := ReadBundle(bytes.NewReader(tc.mut(bytes.Clone(raw))))
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// headerLen returns where the event stream starts in a testHeader() bundle:
// NewWriter flushes exactly the header, so an event-free writer's byte count
// is the header length.
func headerLen([]byte) int {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, testHeader()); err != nil {
		panic(err)
	}
	return buf.Len()
}

// TestBadLabelIndex hand-builds a record whose label reference skips ahead
// of the intern table.
func TestBadLabelIndex(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Replace the end marker with one event whose name index is 5 (table
	// is empty, so only 0 or 1 are legal).
	evt := []byte{byte(obs.EvGauge), 2, 2, 2, 0, 0, 0, 5}
	mut := append(append(bytes.Clone(raw[:len(raw)-2]), evt...), 0, 1)
	_, err = ReadBundle(bytes.NewReader(mut))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad label index: got %v, want ErrCorrupt", err)
	}
}

// TestWriterRejectsBadKind: events outside the encodable range poison the
// writer instead of producing an undecodable file.
func TestWriterRejectsBadKind(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	w.Consume(obs.Event{Kind: obs.Kind(NumKinds + 1)})
	if w.Err() == nil || w.Close() == nil {
		t.Fatal("out-of-range kind accepted")
	}
}

// TestReaderStreamsAfterEOF: Next keeps returning io.EOF once finished.
func TestReaderStreamsAfterEOF(t *testing.T) {
	raw := encode(t, testHeader(), randomEvents(2, 3))
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("streamed %d events, want 3", n)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next after EOF: %v", err)
	}
}

// TestRing checks retention, eviction accounting, and that a dump decodes to
// exactly the newest events in order.
func TestRing(t *testing.T) {
	evs := randomEvents(3, 100)
	r := NewRing(testHeader(), 16)
	for _, e := range evs[:10] {
		r.Consume(e)
	}
	if r.Len() != 10 || r.Dropped() != 0 {
		t.Fatalf("partial fill: len=%d dropped=%d", r.Len(), r.Dropped())
	}
	for _, e := range evs[10:] {
		r.Consume(e)
	}
	if r.Len() != 16 || r.Dropped() != 84 {
		t.Fatalf("full: len=%d dropped=%d", r.Len(), r.Dropped())
	}
	var buf bytes.Buffer
	if err := r.DumpTo(&buf); err != nil {
		t.Fatalf("DumpTo: %v", err)
	}
	b, err := ReadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode dump: %v", err)
	}
	want := evs[84:]
	if len(b.Events) != len(want) {
		t.Fatalf("dump holds %d events, want %d", len(b.Events), len(want))
	}
	for i := range want {
		if b.Events[i] != want[i] {
			t.Fatalf("dump event %d: got %+v want %+v", i, b.Events[i], want[i])
		}
	}
	// The ring keeps recording after a dump.
	r.Consume(evs[0])
	if r.Dropped() != 85 {
		t.Fatalf("post-dump consume: dropped=%d", r.Dropped())
	}
}

// TestConsumeSteadyStateAllocs pins the hot-path contract: once the intern
// table is warm and the buffer grown, Consume allocates nothing.
func TestConsumeSteadyStateAllocs(t *testing.T) {
	w, err := NewWriter(io.Discard, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	e := obs.Event{T: 1, Kind: obs.EvMsgSend, Rank: 1, Peer: 2, A: 64, Name: "MPI_Send"}
	w.Consume(e) // warm the intern table
	allocs := testing.AllocsPerRun(2000, func() {
		e.T += 100
		w.Consume(e)
	})
	if allocs != 0 {
		t.Fatalf("Consume allocates %.1f/op at steady state, want 0", allocs)
	}
	r := NewRing(testHeader(), 64)
	allocs = testing.AllocsPerRun(2000, func() {
		r.Consume(e)
	})
	if allocs != 0 {
		t.Fatalf("Ring.Consume allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkConsume is the micro rail behind the capture-overhead snapshot:
// ns/event and bytes/event for the encoder alone.
func BenchmarkConsume(b *testing.B) {
	w, err := NewWriter(io.Discard, testHeader())
	if err != nil {
		b.Fatal(err)
	}
	e := obs.Event{T: 1, Kind: obs.EvMsgSend, Rank: 1, Peer: 2, A: 64, Name: "MPI_Send"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.T += 100
		w.Consume(e)
	}
	b.SetBytes(w.Bytes() / int64(b.N))
}
