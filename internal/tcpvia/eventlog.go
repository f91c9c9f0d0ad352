package tcpvia

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"viampi/internal/obs"
	"viampi/internal/obs/capture"
)

// EventLog is the wall-clock half of the flight recorder: the capture
// package itself is a pure single-threaded leaf, and while a node's owner
// emits every event, a snapshot loop or a signal handler reads the log from
// a goroutine of its own, so the real-socket twin tees its events through a
// lock here — the package's one mutex.
// Timestamps are host nanoseconds since the log's creation (the bundle's
// header says ClockWall, so consumers know the stamps mean elapsed wall
// time, not virtual time).
//
// Its capture sink is a bounded capture.Ring: a long-lived process keeps the
// last N events and dumps them on demand — on a signal, on a crash, at exit.
//
// Every event is also folded through an obs.Collector — the fold behind
// mpirun-sim -metrics — so the live metrics carry the same key names as the
// simulator's and there is no second counting path beside the log.
type EventLog struct {
	base time.Time

	// mu is a leaf lock: it guards the ring and the metrics fold only, and
	// nothing under it calls back into the stack.
	mu      sync.Mutex
	ring    *capture.Ring
	metrics *obs.Registry
	fold    *obs.Collector
}

// NewEventLog builds a wall-clock log that keeps the most recent ringCap
// events in memory for DumpRing; ringCap must be positive. The header's clock
// source is forced to wall time.
func NewEventLog(h capture.Header, ringCap int) (*EventLog, error) {
	if ringCap <= 0 {
		return nil, fmt.Errorf("tcpvia: event log needs a ring capacity, got %d", ringCap)
	}
	h.Clock = capture.ClockWall
	l := &EventLog{base: time.Now(), ring: capture.NewRing(h, ringCap), metrics: obs.NewRegistry()}
	l.fold = obs.NewCollector(l.metrics)
	return l, nil
}

// Emit records one event, stamped with elapsed wall-clock nanoseconds.
// Safe on a nil log and from any goroutine.
func (l *EventLog) Emit(kind obs.Kind, rank, peer int32, a, b, c int64, name string) {
	if l == nil {
		return
	}
	// Stamped under the lock: the ring's order is the stamps' order.
	l.mu.Lock()
	e := obs.Event{
		T:    time.Since(l.base).Nanoseconds(),
		Kind: kind,
		Rank: rank,
		Peer: peer,
		A:    a, B: b, C: c,
		Name: name,
	}
	l.ring.Consume(e)
	l.fold.Consume(e)
	l.mu.Unlock()
}

// WriteMetricsJSON writes the metrics folded so far as one JSON document,
// rendered under the lock and written outside it so a slow writer never
// stalls emitters. Safe from any goroutine; no-op on a nil log.
func (l *EventLog) WriteMetricsJSON(w io.Writer) error {
	if l == nil {
		return nil
	}
	var doc bytes.Buffer
	l.mu.Lock()
	l.metrics.WriteJSON(&doc)
	l.mu.Unlock()
	_, err := w.Write(doc.Bytes())
	return err
}

// DumpRing writes the retained ring events as a complete bundle — the
// flush-on-signal / flush-on-crash path. Returns the number of events
// dumped and how many older ones had been evicted. No-op on a nil log.
func (l *EventLog) DumpRing(w io.Writer) (kept int, dropped int64, err error) {
	if l == nil {
		return 0, 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Len(), l.ring.Dropped(), l.ring.DumpTo(w)
}
