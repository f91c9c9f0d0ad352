package benchmark

// Host-side measurement helpers: the monotonic clock, allocation and CPU
// accounting around one call, order statistics, and the in-memory span log
// of the traced pass. Everything the harness knows about the host lives
// here; the layers under test never see a wall clock.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is what one timed call cost the host.
type sample struct {
	wall   time.Duration
	cpu    time.Duration // user+system CPU of the whole process over the call
	bytes  uint64        // MemStats.TotalAlloc delta
	allocs uint64        // MemStats.Mallocs delta
	rssMB  float64       // high-water RSS over the call; only timedReps fills it
}

// timed runs fn once and reports its cost. The collection before the call
// is outside the timer, so every call starts from the same heap state.
func timed(fn func() error) (sample, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	return sample{wall: wall, cpu: c1 - c0, bytes: m1.TotalAlloc - m0.TotalAlloc, allocs: m1.Mallocs - m0.Mallocs}, err
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer; a zero
	// struct on an exotic kernel reads as "no CPU, no RSS", never a crash.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's high-water mark of this process's
// resident set, so the next peakRSSMB reads the peak since now. Where the
// kernel does not allow it the mark keeps covering the whole process, which
// is still a valid (if coarser) reading, so the error is dropped.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB is the high-water resident set since the last reset: VmHWM
// where /proc has it, else the process-wide ru_maxrss (both in kB on Linux).
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return float64(rusage().Maxrss) / 1024
}

// median returns the middle value (mean of the two middle values for an
// even count). It panics on an empty slice: every caller measured at least
// once or already failed.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf reduces samples to the median of one of their fields.
func medianOf(ss []sample, field func(sample) float64) float64 {
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = field(s)
	}
	return median(v)
}

func wallSeconds(s sample) float64 { return s.wall.Seconds() }

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), because that
// is what judges this benchmark's spread. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// hostShape is what a wall-clock number depends on besides the code.
type hostShape struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func readHostShape() hostShape {
	h := hostShape{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	if h.GOGC == "" {
		h.GOGC = "100"
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// span is one timed call into a layer, recorded by the harness around the
// call (spans inside the program are a later change).
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index of the enclosing span, -1 at the root
}

// tracer keeps spans in memory and writes them out once, when the run ends.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	open     []int // stack of open span indices
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// in records fn as a child of whatever span is currently open.
func (t *tracer) in(name string, rep int, fn func() error) error {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Rep: rep, Parent: parent,
		StartNs: time.Since(t.epoch).Nanoseconds()})
	t.open = append(t.open, id)
	err := fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].EndNs = time.Since(t.epoch).Nanoseconds()
	return err
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(map[string]any{"host": readHostShape(), "spans": t.spans})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
