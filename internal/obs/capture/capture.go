// Package capture is the persistent form of the obs flight recorder: a
// versioned, compact binary encoding of the full event stream, written live
// by a bus subscriber and read back as a stream — so a run's complete
// observable record (when connections were set up, evicted, re-established,
// and what each message paid) survives the process and can be re-rendered,
// summarized, or diffed against another run without re-running anything.
//
// A bundle is one file:
//
//	magic   "VIAC"                        4 bytes
//	version u8                            schema version (currently 1)
//	clock   u8                            0 = virtual time, 1 = wall clock
//	world   uvarint                       ranks in the job
//	seed    varint                        simulation seed (0 for wall runs)
//	device, policy, label, config         4 × (uvarint length + bytes)
//	digest  8 bytes                       sha256(config)[:8], reader-verified
//	events  repeated records              see below
//	end     0x00 + uvarint event count    truncation check
//
// Each event record is one kind byte (1..NumKinds; 0 is the end marker)
// followed by varints: the timestamp as a delta from the previous event
// (signed, so slightly out-of-order wall-clock stamps survive), rank, peer,
// and the A/B/C payloads (all signed), then the label reference — 0 for no
// name, an existing 1-based intern-table index, or table-length+1 to declare
// a new string inline (uvarint length + bytes), which both sides append to
// their table. Typical simulated events encode in 9–14 bytes.
//
// Versioning rules: the kind space is append-only (values are never reused
// or renumbered — the same rule obs.Kind already obeys for its exported
// names), so any version-1 reader can decode any version-1 bundle; a record
// carrying a kind byte above the reader's known range means the bundle came
// from a newer build and is reported as such, not skipped. Any change that
// alters existing field meaning bumps the version byte, and readers reject
// versions they do not know.
//
// Like its parent package, capture is a shared leaf: pure functions of the
// byte stream, no clocks, no goroutines, importable from any layer. The
// Writer's per-event path is allocation-free at steady state (registered in
// the viampi-vet hotalloc policy), so recording costs a bounded, predictable
// slice of the event rate.
package capture

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"viampi/internal/obs"
)

// Version is the current bundle schema version.
const Version = 1

// NumKinds is the highest event kind this build encodes or decodes.
const NumKinds = int(obs.EvRunEnd)

// Clock identifies the time source of a bundle's event stamps.
type Clock uint8

// The two clock sources: simulated virtual time (deterministic, the default
// for every simnet run) and host wall-clock time (the tcpvia twin).
const (
	ClockVirtual Clock = iota
	ClockWall
)

func (c Clock) String() string {
	switch c {
	case ClockVirtual:
		return "virtual"
	case ClockWall:
		return "wall"
	default:
		return "unknown"
	}
}

// Header is the bundle preamble: enough run identity to interpret, compare,
// and label the event stream without any side channel.
type Header struct {
	Version uint8 // schema version; NewWriter stamps the current one
	Clock   Clock
	World   int    // ranks in the job
	Seed    int64  // simulation seed (informational for wall-clock runs)
	Device  string // cost model / provider ("clan", "bvia", "ib", "tcp")
	Policy  string // connection policy the run used
	Label   string // free-form run label ("CG.S", "tcpring")
	Config  string // full config text; Digest() is computed over it
}

// Digest returns the hex form of the 8-byte config digest embedded in the
// bundle (the first 8 bytes of sha256(Config)).
func (h Header) Digest() string {
	d := configDigest(h.Config)
	return fmt.Sprintf("%x", d[:])
}

func configDigest(config string) [8]byte {
	sum := sha256.Sum256([]byte(config))
	var d [8]byte
	copy(d[:], sum[:8])
	return d
}

// Decode/encode error classes. Reader errors wrap these, so callers can
// distinguish "not a bundle" from "a bundle that ends mid-record".
var (
	ErrBadMagic  = errors.New("capture: not a bundle (bad magic)")
	ErrVersion   = errors.New("capture: unsupported bundle version")
	ErrTruncated = errors.New("capture: truncated bundle (no end marker)")
	ErrCorrupt   = errors.New("capture: corrupt bundle")
)

// errBadKind is the Writer-side guard: an event kind outside the encodable
// range would produce a bundle no reader accepts.
var errBadKind = fmt.Errorf("%w: event kind outside the encodable range", ErrCorrupt)

const (
	flushAt   = 32 << 10 // flush the encode buffer to the sink at this size
	maxString = 1 << 20  // sanity bound on decoded string lengths
)

// Writer encodes bus events into an io.Writer. Create it with NewWriter
// (which writes the header immediately), feed it via Attach or Consume, and
// Close it to seal the bundle with the end marker and event count.
type Writer struct {
	out    io.Writer
	buf    []byte
	names  map[string]uint64
	lastT  int64
	events int64
	flushd int64 // bytes handed to out so far
	err    error
	bus    *obs.Bus
	sub    obs.Sub
}

// NewWriter writes the bundle header for h to out and returns a Writer for
// the event stream. h.Version is stamped with the current schema version.
func NewWriter(out io.Writer, h Header) (*Writer, error) {
	w := &Writer{
		out:   out,
		buf:   make([]byte, 0, flushAt+512),
		names: make(map[string]uint64),
	}
	w.buf = append(w.buf, 'V', 'I', 'A', 'C', Version, byte(h.Clock))
	w.buf = binary.AppendUvarint(w.buf, uint64(h.World))
	w.buf = binary.AppendVarint(w.buf, h.Seed)
	for _, s := range []string{h.Device, h.Policy, h.Label, h.Config} {
		w.buf = binary.AppendUvarint(w.buf, uint64(len(s)))
		w.buf = append(w.buf, s...)
	}
	d := configDigest(h.Config)
	w.buf = append(w.buf, d[:]...)
	w.flush()
	if w.err != nil {
		return nil, w.err
	}
	return w, nil
}

// Attach subscribes the writer to b. A nil bus is ignored. Close detaches
// again, so a sealed bundle never keeps consuming bus events.
func (w *Writer) Attach(b *obs.Bus) {
	if b == nil {
		return
	}
	w.bus, w.sub = b, b.Subscribe(w.Consume)
}

// Consume encodes one event. It is the recording hot path: at steady state
// (label table warm, buffer grown) it allocates nothing.
func (w *Writer) Consume(e obs.Event) {
	if w.err != nil {
		return
	}
	if e.Kind == 0 || int(e.Kind) > NumKinds {
		w.err = errBadKind
		return
	}
	w.buf = append(w.buf, byte(e.Kind))
	w.buf = binary.AppendVarint(w.buf, e.T-w.lastT)
	w.lastT = e.T
	w.buf = binary.AppendVarint(w.buf, int64(e.Rank))
	w.buf = binary.AppendVarint(w.buf, int64(e.Peer))
	w.buf = binary.AppendVarint(w.buf, e.A)
	w.buf = binary.AppendVarint(w.buf, e.B)
	w.buf = binary.AppendVarint(w.buf, e.C)
	if e.Name == "" {
		w.buf = append(w.buf, 0)
	} else if idx, ok := w.names[e.Name]; ok {
		w.buf = binary.AppendUvarint(w.buf, idx)
	} else {
		w.internName(e.Name)
	}
	w.events++
	if len(w.buf) >= flushAt {
		w.flush()
	}
}

// internName registers a new label and encodes its inline declaration — the
// cold half of the name path, entered once per distinct label.
func (w *Writer) internName(name string) {
	idx := uint64(len(w.names)) + 1
	w.names[name] = idx
	w.buf = binary.AppendUvarint(w.buf, idx)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(name)))
	w.buf = append(w.buf, name...)
}

func (w *Writer) flush() {
	if w.err != nil || len(w.buf) == 0 {
		return
	}
	n, err := w.out.Write(w.buf)
	w.flushd += int64(n)
	w.err = err
	w.buf = w.buf[:0]
}

// Close seals the bundle: end marker, total event count, final flush, and
// unsubscription from any bus the writer was Attached to (events emitted
// after Close would corrupt a sealed bundle). The underlying io.Writer is
// not closed. Close reports the first error the writer encountered anywhere.
func (w *Writer) Close() error {
	if w.bus != nil {
		w.bus.Unsubscribe(w.sub)
		w.bus = nil
	}
	if w.err == nil {
		w.buf = append(w.buf, 0)
		w.buf = binary.AppendUvarint(w.buf, uint64(w.events))
		w.flush()
	}
	return w.err
}

// Events returns the number of events encoded so far.
func (w *Writer) Events() int64 { return w.events }

// Bytes returns the number of bundle bytes produced so far (header
// included, buffered bytes counted).
func (w *Writer) Bytes() int64 { return w.flushd + int64(len(w.buf)) }

// Err returns the writer's sticky error, if any.
func (w *Writer) Err() error { return w.err }

// Reader streams events back out of a bundle without materializing the run.
type Reader struct {
	br    *bufio.Reader
	h     Header
	names []string
	lastT int64
	n     int64
	done  bool
}

// NewReader decodes the bundle header from r and returns a Reader positioned
// at the first event.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w (%v)", ErrBadMagic, err)
	}
	if string(magic[:]) != "VIAC" {
		return nil, ErrBadMagic
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: header ends before version", ErrTruncated)
	}
	if ver != Version {
		return nil, fmt.Errorf("%w: bundle is version %d, this build reads version %d", ErrVersion, ver, Version)
	}
	clk, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: header ends before clock", ErrTruncated)
	}
	if Clock(clk) > ClockWall {
		return nil, fmt.Errorf("%w: unknown clock source %d", ErrCorrupt, clk)
	}
	rd := &Reader{br: br, h: Header{Version: ver, Clock: Clock(clk)}}
	world, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: header ends in world size", ErrTruncated)
	}
	if world > math.MaxInt32 {
		// Ranks travel as int32 and the report folds size their tables by
		// the world, so a larger claim is damage, not a bigger job.
		return nil, fmt.Errorf("%w: world size %d beyond the rank range", ErrCorrupt, world)
	}
	rd.h.World = int(world)
	if rd.h.Seed, err = binary.ReadVarint(br); err != nil {
		return nil, fmt.Errorf("%w: header ends in seed", ErrTruncated)
	}
	for _, dst := range []*string{&rd.h.Device, &rd.h.Policy, &rd.h.Label, &rd.h.Config} {
		if *dst, err = rd.readString(); err != nil {
			return nil, fmt.Errorf("header string: %w", err)
		}
	}
	var digest [8]byte
	if _, err := io.ReadFull(br, digest[:]); err != nil {
		return nil, fmt.Errorf("%w: header ends in config digest", ErrTruncated)
	}
	if digest != configDigest(rd.h.Config) {
		return nil, fmt.Errorf("%w: config digest mismatch (header damaged)", ErrCorrupt)
	}
	return rd, nil
}

// Header returns the decoded bundle header.
func (r *Reader) Header() Header { return r.h }

// Next returns the next event. It returns io.EOF after the end marker has
// been read and verified; a stream that stops without the marker yields
// ErrTruncated, and impossible values yield ErrCorrupt.
func (r *Reader) Next() (obs.Event, error) {
	if r.done {
		return obs.Event{}, io.EOF
	}
	kind, err := r.br.ReadByte()
	if err != nil {
		return obs.Event{}, fmt.Errorf("%w after %d events", ErrTruncated, r.n)
	}
	if kind == 0 {
		return obs.Event{}, r.finish()
	}
	if int(kind) > NumKinds {
		return obs.Event{}, fmt.Errorf("%w: kind %d beyond this build's range %d (newer bundle?)", ErrCorrupt, kind, NumKinds)
	}
	var e obs.Event
	e.Kind = obs.Kind(kind)
	fields := [6]int64{}
	for i := range fields {
		if fields[i], err = binary.ReadVarint(r.br); err != nil {
			return obs.Event{}, fmt.Errorf("%w: event %d ends mid-record", ErrTruncated, r.n)
		}
	}
	r.lastT += fields[0]
	e.T = r.lastT
	e.Rank = int32(fields[1])
	e.Peer = int32(fields[2])
	e.A, e.B, e.C = fields[3], fields[4], fields[5]
	idx, err := binary.ReadUvarint(r.br)
	if err != nil {
		return obs.Event{}, fmt.Errorf("%w: event %d ends in label reference", ErrTruncated, r.n)
	}
	switch {
	case idx == 0:
	case idx <= uint64(len(r.names)):
		e.Name = r.names[idx-1]
	case idx == uint64(len(r.names))+1:
		s, err := r.readString()
		if err != nil {
			return obs.Event{}, fmt.Errorf("label declaration: %w", err)
		}
		r.names = append(r.names, s)
		e.Name = s
	default:
		return obs.Event{}, fmt.Errorf("%w: label index %d with only %d interned", ErrCorrupt, idx, len(r.names))
	}
	r.n++
	return e, nil
}

// finish validates the trailer behind the end marker.
func (r *Reader) finish() error {
	r.done = true
	count, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("%w: end marker without event count", ErrTruncated)
	}
	if int64(count) != r.n {
		return fmt.Errorf("%w: trailer says %d events, stream held %d", ErrCorrupt, count, r.n)
	}
	if _, err := r.br.ReadByte(); err != io.EOF {
		return fmt.Errorf("%w: trailing bytes after the end marker", ErrCorrupt)
	}
	return io.EOF
}

func (r *Reader) readString() (string, error) {
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		return "", ErrTruncated
	}
	if n > maxString {
		return "", fmt.Errorf("%w: string length %d", ErrCorrupt, n)
	}
	// Grown by the bytes that are there, not sized by the length the stream
	// claims: a ten-byte bundle must not cost a megabyte.
	var sb strings.Builder
	if _, err := io.CopyN(&sb, r.br, int64(n)); err != nil {
		return "", ErrTruncated
	}
	return sb.String(), nil
}

// Bundle is a fully-decoded capture: header plus the ordered event stream.
// Reader is the streaming form; Bundle is the convenient one for tools that
// need random access (replay rendering, diffing).
type Bundle struct {
	Header Header
	Events []obs.Event
}

// ReadBundle decodes a whole bundle from r.
func ReadBundle(r io.Reader) (*Bundle, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	b := &Bundle{Header: rd.Header()}
	for {
		e, err := rd.Next()
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		b.Events = append(b.Events, e)
	}
}

// EmitAll replays the bundle's events onto a bus in recorded order — the
// bridge back into every obs fold (obs.Reports attaches all of them):
// attach, EmitAll, and render exactly what the live run rendered.
func (b *Bundle) EmitAll(bus *obs.Bus) {
	for _, e := range b.Events {
		bus.Emit(e)
	}
}

// Ring is a bounded event buffer with the same Consume interface as Writer:
// it keeps the most recent capacity events in memory and encodes them as a
// bundle only on demand. This is the wall-clock / soak mode — a long-running
// tcpvia process can afford a few megabytes of ring but not an unbounded
// file, and a flush-on-signal or flush-on-crash dump of the last N events is
// exactly what a postmortem needs.
type Ring struct {
	h    Header
	buf  []obs.Event
	next int
	n    int64
}

// NewRing returns a ring holding the last capacity events (minimum 1).
func NewRing(h Header, capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{h: h, buf: make([]obs.Event, capacity)}
}

// Consume stores one event, evicting the oldest when full. Allocation-free.
func (r *Ring) Consume(e obs.Event) {
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	r.n++
}

// Len returns the number of events currently held.
func (r *Ring) Len() int {
	if r.n < int64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// Dropped returns how many events have been evicted to stay within bounds.
func (r *Ring) Dropped() int64 {
	if r.n < int64(len(r.buf)) {
		return 0
	}
	return r.n - int64(len(r.buf))
}

// DumpTo encodes the retained events, oldest first, as a complete bundle.
// The ring is not consumed and can keep recording afterwards.
func (r *Ring) DumpTo(w io.Writer) error {
	cw, err := NewWriter(w, r.h)
	if err != nil {
		return err
	}
	start := 0
	if r.n >= int64(len(r.buf)) {
		start = r.next
	}
	for i := 0; i < r.Len(); i++ {
		cw.Consume(r.buf[(start+i)%len(r.buf)])
	}
	return cw.Close()
}
