package sweep

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTrackerReleasesItsLock: advance and render (with a progress sink
// attached) each leave the tracker's lock free when they return. It runs
// first, so a call that keeps the lock fails here, by name, instead of hanging
// the next Run until the package times out.
func TestTrackerReleasesItsLock(t *testing.T) {
	tr := newTracker("lock", 2, func(string, bool) {})
	for _, c := range []struct {
		method string
		call   func()
	}{
		{"advance", tr.advance},
		{"render", func() { tr.render("job") }},
	} {
		c.call()
		if !tr.mu.TryLock() {
			t.Fatalf("tracker.%s returned holding the tracker's lock", c.method)
		}
		tr.mu.Unlock()
	}
}

// TestResultsInJobOrder seeds jobs that finish in deliberately scrambled
// order (later indices sleep less) and asserts the merged results come back
// indexed exactly like the job list, for several worker counts.
func TestResultsInJobOrder(t *testing.T) {
	const n = 32
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			ID: fmt.Sprintf("job%d", i),
			Run: func() (int, error) {
				time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
				return i * i, nil
			},
		}
	}
	for _, workers := range []int{1, 2, 8, 64} {
		rs := Run(Options{Workers: workers}, jobs)
		if len(rs) != n {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(rs), n)
		}
		for i, r := range rs {
			if r.ID != fmt.Sprintf("job%d", i) || r.Err != nil || r.Value != i*i {
				t.Fatalf("workers=%d: result[%d] = {%s %d %v}, want {job%d %d nil}",
					workers, i, r.ID, r.Value, r.Err, i, i*i)
			}
		}
	}
}

// TestPanicRecoveredPerJob seeds one panicking job in the middle of the
// batch: it must come back as an error naming the job ID, and every other
// job must still run to completion.
func TestPanicRecoveredPerJob(t *testing.T) {
	const n = 9
	var ran atomic.Int32
	jobs := make([]Job[string], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[string]{
			ID: fmt.Sprintf("exp/np=%d/on-demand", 1<<i),
			Run: func() (string, error) {
				if i == 4 {
					panic("descriptor pool exhausted")
				}
				ran.Add(1)
				return "ok", nil
			},
		}
	}
	rs := Run(Options{Workers: 3}, jobs)
	if got := ran.Load(); got != n-1 {
		t.Fatalf("%d healthy jobs ran, want %d (a panic must not kill the batch)", got, n-1)
	}
	for i, r := range rs {
		if i == 4 {
			if r.Err == nil {
				t.Fatal("panicking job reported no error")
			}
			msg := r.Err.Error()
			if !strings.Contains(msg, "exp/np=16/on-demand") || !strings.Contains(msg, "descriptor pool exhausted") {
				t.Fatalf("panic error does not name the job and cause: %v", r.Err)
			}
			if !strings.Contains(msg, "sweep_test.go") {
				t.Fatalf("panic error carries no stack: %v", r.Err)
			}
			continue
		}
		if r.Err != nil || r.Value != "ok" {
			t.Fatalf("healthy job %d: {%q %v}", i, r.Value, r.Err)
		}
	}

	// Values reports the panic as the first (and only) error.
	if _, err := Values(rs); err == nil || !strings.Contains(err.Error(), "exp/np=16/on-demand") {
		t.Fatalf("Values error = %v, want the tagged panic", err)
	}
}

// TestFirstErrorByIndex checks Values picks the error of the lowest job
// index, not whichever failing job completed first.
func TestFirstErrorByIndex(t *testing.T) {
	jobs := []Job[int]{
		{ID: "a", Run: func() (int, error) {
			time.Sleep(2 * time.Millisecond) // finishes after b fails
			return 0, errors.New("first by index")
		}},
		{ID: "b", Run: func() (int, error) { return 0, errors.New("first to finish") }},
		{ID: "c", Run: func() (int, error) { return 3, nil }},
	}
	_, err := Values(Run(Options{Workers: 3}, jobs))
	if err == nil || err.Error() != "first by index" {
		t.Fatalf("Values error = %v, want the job-order first error", err)
	}
}

// TestWorkerBound proves the pool never runs more than Workers jobs at
// once, and that Workers<=0 still runs everything.
func TestWorkerBound(t *testing.T) {
	const workers, n = 3, 24
	var mu sync.Mutex
	live, peak := 0, 0
	jobs := make([]Job[struct{}], n)
	for i := range jobs {
		jobs[i] = Job[struct{}]{ID: fmt.Sprint(i), Run: func() (struct{}, error) {
			mu.Lock()
			live++
			if live > peak {
				peak = live
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			live--
			mu.Unlock()
			return struct{}{}, nil
		}}
	}
	Run(Options{Workers: workers}, jobs)
	if peak > workers {
		t.Fatalf("pool peaked at %d concurrent jobs, bound is %d", peak, workers)
	}
	if rs := Run(Options{Workers: 0}, jobs); len(rs) != n {
		t.Fatalf("Workers=0 ran %d jobs, want %d", len(rs), n)
	}
	if rs := Run[struct{}](Options{}, nil); len(rs) != 0 {
		t.Fatalf("empty batch returned %d results", len(rs))
	}
}

// TestProgressLines drives the runner with a recording sink: every line
// must carry the label and a done/total count, the counts must be
// monotonic, and the final line must be the deterministic N/N summary.
func TestProgressLines(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	var finals int
	sink := func(line string, final bool) {
		mu.Lock()
		lines = append(lines, line)
		if final {
			finals++
		}
		mu.Unlock()
	}
	const n = 5
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{ID: fmt.Sprintf("cell%d", i), Run: func() (int, error) { return i, nil }}
	}
	Run(Options{Workers: 2, Progress: sink, Label: "grid"}, jobs)
	if len(lines) != n+1 {
		t.Fatalf("got %d progress lines, want %d (one per completion + final)", len(lines), n+1)
	}
	prev := 0
	for _, l := range lines[:n] {
		var done, total int
		var label string
		if _, err := fmt.Sscanf(l, "%s %d/%d done,", &label, &done, &total); err != nil {
			t.Fatalf("unparseable progress line %q: %v", l, err)
		}
		if label != "grid:" || total != n || done < prev {
			t.Fatalf("malformed progress line %q (prev done %d)", l, prev)
		}
		prev = done
	}
	if finals != 1 || !strings.HasPrefix(lines[n], fmt.Sprintf("grid: %d/%d done in ", n, n)) {
		t.Fatalf("final line %q not the N/N summary (finals=%d)", lines[n], finals)
	}
}

// TestWriterRewritesInPlace pins the carriage-return discipline: interim
// lines never emit a newline, shrinking lines are blanked out, and the
// final line ends the stream with exactly one newline.
func TestWriterRewritesInPlace(t *testing.T) {
	var buf strings.Builder
	w := Writer(&buf)
	w("a long interim line", false)
	w("short", false)
	w("done", true)
	out := buf.String()
	if strings.Count(out, "\n") != 1 || !strings.HasSuffix(out, "\n") {
		t.Fatalf("writer output %q must end with its only newline", out)
	}
	if !strings.Contains(out, "\rshort              ") {
		t.Fatalf("writer did not blank the shrinking line: %q", out)
	}
}
