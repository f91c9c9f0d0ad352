package obs

import (
	"fmt"
	"io"
	"maps"
	"slices"
)

// Chrome trace-event / Perfetto JSON export. Every run in the recorder
// becomes a trace process (pid = run index), every rank a thread, MPI calls
// duration spans, connection setups async spans, user messages flow arrows,
// gauges counter tracks, and the remaining protocol/FIFO/credit events
// instants. The output is deterministic: event order is bus order, metadata
// is sorted, and timestamps are fixed-precision — byte-identical across runs
// with the same Config.

// perfettoWriter accumulates the first write error so the exporter body can
// stay free of per-line error plumbing.
type perfettoWriter struct {
	w     io.Writer
	err   error
	first bool
}

func (pw *perfettoWriter) emit(format string, args ...interface{}) {
	if pw.err != nil {
		return
	}
	if !pw.first {
		if _, pw.err = io.WriteString(pw.w, ",\n"); pw.err != nil {
			return
		}
	}
	pw.first = false
	_, pw.err = fmt.Fprintf(pw.w, format, args...)
}

// us renders a virtual-time nanosecond stamp as trace-event microseconds.
func us(tNs int64) string { return fmt.Sprintf("%d.%03d", tNs/1000, tNs%1000) }

// WritePerfetto writes the whole recorder (all runs) as Chrome trace-event
// JSON loadable by Perfetto or chrome://tracing.
func (r *Recorder) WritePerfetto(w io.Writer) error {
	pw := &perfettoWriter{w: w, first: true}
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for pid, ru := range r.runs {
		writeRun(pw, pid, ru)
	}
	if pw.err != nil {
		return pw.err
	}
	_, err := io.WriteString(w, "\n],\"displayTimeUnit\":\"ns\"}\n")
	return err
}

func writeRun(pw *perfettoWriter, pid int, ru run) {
	label := ru.label
	if label == "" {
		label = fmt.Sprintf("run %d", pid)
	}
	pw.emit(`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%q}}`, pid, label)

	// Thread metadata: one line per rank seen, sorted.
	seen := map[int]bool{}
	for _, e := range ru.events {
		seen[int(e.Rank)] = true
	}
	for _, rk := range slices.Sorted(maps.Keys(seen)) {
		pw.emit(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"rank %d"}}`, pid, rk, rk)
	}

	for _, e := range ru.events {
		writeEvent(pw, pid, e)
	}
}

func writeEvent(pw *perfettoWriter, pid int, e Event) {
	switch e.Kind {
	case EvCallBegin:
		pw.emit(`{"ph":"B","pid":%d,"tid":%d,"ts":%s,"cat":"mpi","name":%q}`,
			pid, e.Rank, us(e.T), e.Name)
	case EvCallEnd:
		pw.emit(`{"ph":"E","pid":%d,"tid":%d,"ts":%s,"cat":"mpi","name":%q}`,
			pid, e.Rank, us(e.T), e.Name)
	case EvConnRequest, EvConnAccept:
		pw.emit(`{"ph":"b","pid":%d,"tid":%d,"ts":%s,"cat":"conn","id":"c%d:%d","name":"connect %d-%d"}`,
			pid, e.Rank, us(e.T), e.Rank, e.A, e.Rank, e.Peer)
	case EvConnUp:
		pw.emit(`{"ph":"e","pid":%d,"tid":%d,"ts":%s,"cat":"conn","id":"c%d:%d","name":"connect %d-%d"}`,
			pid, e.Rank, us(e.T), e.Rank, e.A, e.Rank, e.Peer)
	case EvMsgSend:
		if e.Peer == e.Rank {
			return // self-sends never cross the wire; no arrow to draw
		}
		pw.emit(`{"ph":"s","pid":%d,"tid":%d,"ts":%s,"cat":"msg","id":"m%d-%d-%d","name":"msg"}`,
			pid, e.Rank, us(e.T), e.Rank, e.Peer, e.C)
	case EvMsgRecv:
		pw.emit(`{"ph":"f","bp":"e","pid":%d,"tid":%d,"ts":%s,"cat":"msg","id":"m%d-%d-%d","name":"msg"}`,
			pid, e.Rank, us(e.T), e.Peer, e.Rank, e.C)
	case EvGauge:
		pw.emit(`{"ph":"C","pid":%d,"tid":%d,"ts":%s,"cat":"gauge","name":"%s/r%d","args":{"value":%d}}`,
			pid, e.Rank, us(e.T), e.Name, e.Rank, e.A)
	case EvViCreate, EvConnReject, EvFifoPark, EvFifoDrain,
		EvEagerSend, EvRts, EvCts, EvRdma, EvFin,
		EvCreditGrant, EvCreditStall, EvUnexpected,
		EvDisconnect, EvEvict, EvConnRetry, EvReconnect:
		pw.emit(`{"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%s,"cat":"proto","name":%q,"args":{"peer":%d,"a":%d,"b":%d}}`,
			pid, e.Rank, us(e.T), e.Kind.String(), e.Peer, e.A, e.B)
	case EvProcStart, EvProcEnd, EvFrameEnqueue, EvFrameDeliver, EvPhase, EvRunEnd:
		// Process lifetime is implied by the spans; frame events are
		// metrics-only (their volume would drown the timeline); the run
		// epilogue records (phase totals, elapsed) are table/summary inputs,
		// not timeline marks.
	}
}
