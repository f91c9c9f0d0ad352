package sweep

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// ProgressFunc receives one rendered progress line per event. The runner
// calls it with lines like "figures/ext-init: 3/10 done, last
// ext-init/np=1024/on-demand, eta 12.4s" and a final "N/N done in 3.2s".
type ProgressFunc func(line string, final bool)

// Stderr returns a ProgressFunc that rewrites one line in place on
// os.Stderr, or nil — meaning no progress at all — when quiet is set or
// stderr is not a terminal (a redirected log should hold artifacts, not
// carriage returns).
func Stderr(quiet bool) ProgressFunc {
	if quiet || !IsTerminal(os.Stderr) {
		return nil
	}
	return Writer(os.Stderr)
}

// Writer returns a ProgressFunc that rewrites one line in place on w using
// carriage returns, ending with a newline on the final line.
func Writer(w io.Writer) ProgressFunc {
	var width int
	return func(line string, final bool) {
		pad := width - len(line)
		if pad < 0 {
			pad = 0
		}
		if width = len(line); final {
			fmt.Fprintf(w, "\r%s%*s\n", line, pad, "")
			return
		}
		fmt.Fprintf(w, "\r%s%*s", line, pad, "")
	}
}

// IsTerminal reports whether f is attached to a character device — the
// stdlib-only stand-in for isatty, good enough to keep progress lines out
// of redirected logs and CI output.
func IsTerminal(f *os.File) bool {
	st, err := f.Stat()
	return err == nil && st.Mode()&os.ModeCharDevice != 0
}

// tracker is the runner's progress state: a done counter plus the
// wall-clock start the ETA extrapolates from. Workers bump it on every
// completion, so the bookkeeping half (advance) is registered as a
// zero-allocation hot path in the vet policy — it runs inside every sweep
// benchmark/ times (figures_quick, sweep.speedup) and must not add GC
// pressure to the measurement — while the fmt-heavy rendering half only
// runs when a progress sink is attached.
type tracker struct {
	mu       sync.Mutex
	label    string
	total    int
	done     int
	start    time.Time
	progress ProgressFunc
}

func newTracker(label string, total int, progress ProgressFunc) *tracker {
	t := &tracker{label: label, total: total, progress: progress, start: time.Now()}
	if t.label == "" {
		t.label = "sweep"
	}
	return t
}

// advance records one finished job. Kept free of formatting (and of
// allocation — a Policy.HotRoots entry) so batches run with progress disabled
// pay nothing here but a counter bump under an uncontended lock.
func (t *tracker) advance() {
	t.mu.Lock()
	t.done++
	t.mu.Unlock()
}

// render emits the progress line for the just-finished job, if a sink is
// attached. The done/total/ETA snapshot is taken under the lock; the write
// itself is serialized by the same lock so concurrent completions cannot
// interleave partial lines.
func (t *tracker) render(lastID string) {
	if t.progress == nil {
		return
	}
	t.mu.Lock()
	done, total := t.done, t.total
	eta := t.etaLocked()
	t.progress(fmt.Sprintf("%s: %d/%d done, last %s, eta %.1fs",
		t.label, done, total, lastID, eta.Seconds()), false)
	t.mu.Unlock()
}

// etaLocked extrapolates remaining wall time from the completed fraction.
func (t *tracker) etaLocked() time.Duration {
	if t.done == 0 {
		return 0
	}
	elapsed := time.Since(t.start)
	return elapsed / time.Duration(t.done) * time.Duration(t.total-t.done)
}

// finish emits the deterministic final line: every count in it is a pure
// function of the job list (the elapsed time is wall clock, flagged as
// such by its position after "in").
func (t *tracker) finish() {
	if t.progress == nil {
		return
	}
	t.mu.Lock()
	t.progress(fmt.Sprintf("%s: %d/%d done in %.1fs",
		t.label, t.done, t.total, time.Since(t.start).Seconds()), true)
	t.mu.Unlock()
}
