package benchmark

// Entry point. The harness is a test-only package (see README.md, "Traps"),
// so its main function is TestMain: with -workload it runs one workload and
// prints the result document as the last line of standard output; with
// -set, -compare or -selfcheck it runs the comparison tools; with none of
// them it runs the package's ordinary tests (the tier-1 smoke test).

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

var (
	flagWorkload  = flag.String("workload", "", "workload to run: one of the names in BENCHMARK.json")
	flagSeed      = flag.Int64("seed", 1, "seed every generated input derives from")
	flagSeconds   = flag.Float64("seconds", 0, "how long the timed repetitions run, at least; 0 means run_seconds of BENCHMARK.json")
	flagTrace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass, per-layer metrics")
	flagSet       = flag.String("set", "", "run every workload runsPerSet times, each with another seed, and write the set document to this file")
	flagCompare   = flag.Bool("compare", false, "compare the two set documents named as arguments")
	flagSelfcheck = flag.Bool("selfcheck", false, "run two sets back to back and fail if any median pair disagrees by more than its bound")
)

func TestMain(m *testing.M) {
	start := time.Now()
	flag.Parse()
	var err error
	switch {
	case *flagWorkload != "":
		err = runMain(start)
	case *flagCompare:
		err = compareMain(flag.Args())
	case *flagSelfcheck:
		err = selfcheckMain()
	case *flagSet != "":
		_, err = runSet(*flagSet)
	default:
		os.Exit(m.Run())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// outDir is where the harness writes: next to its own binary, which
// run.sh puts in benchmark/out.
func outDir() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	return filepath.Dir(exe), nil
}

// runSeconds is -seconds, and without it the run length BENCHMARK.json
// fixes, so that a set made without the flag compares with any other.
func runSeconds() (float64, error) {
	if *flagSeconds > 0 {
		return *flagSeconds, nil
	}
	doc, err := loadBenchmarkDoc()
	if err != nil {
		return 0, err
	}
	return float64(doc.RunSeconds), nil
}

// minReps is the floor on timed repetitions: the median of 21 has ten
// samples on either side of it.
const minReps = 21

func runMain(start time.Time) error {
	dir, err := outDir()
	if err != nil {
		return err
	}
	seconds, err := runSeconds()
	if err != nil {
		return err
	}
	opt := options{
		workload: *flagWorkload, seed: *flagSeed, seconds: seconds, trace: *flagTrace != 0,
		size: full, setups: 3, setupSeconds: 3, minReps: minReps, outDir: dir, start: start,
	}
	if opt.trace {
		opt.setups, opt.setupSeconds = 1, 0 // the traced pass reports no setup_s
	}
	res, err := runBenchmark(opt)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// metricValue and result are the document the contract asks for.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEnd names the end-to-end metrics and their units; direction and
// bound live in BENCHMARK.json. All are lower-is-better.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s_p50", "s"},
	{"alloc_mb_per_run", "MB"},
	{"allocs_per_run", "count"},
	{"peak_rss_mb", "MB"},
}

type options struct {
	workload string
	seed     int64
	seconds  float64 // timed repetitions continue until this much time has passed
	trace    bool
	size     size
	// Set-up is repeated setups times, and on until setupSeconds have been
	// spent on it or it has run 3*setups times; setup_s is the median.
	setups       int
	setupSeconds float64
	minReps      int // timed repetitions, at least
	outDir       string
	start        time.Time // when the process began: the first set-up is timed from here
}

// runBenchmark runs one workload: set-up, then either the timed
// repetitions (end-to-end metrics) or the traced pass (per-layer metrics).
// One op is one repetition; a repetition that errors or fails a check is a
// failed op, and so is a set-up that fails.
func runBenchmark(opt options) (result, error) {
	w, err := newWorkload(opt.workload, opt.size)
	if err != nil {
		return result{}, err
	}
	return runBenchmarkWith(w, opt)
}

func runBenchmarkWith(w *workload, opt options) (result, error) {
	var setupS []float64
	var inputs uint64
	t0 := opt.start
	for i := 0; i < opt.setups || (i < 3*opt.setups && time.Since(opt.start).Seconds() < opt.setupSeconds); i++ {
		var err error
		if inputs, err = w.setup(opt.seed); err != nil {
			return result{Attempted: 1, Failed: 1}, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		runtime.GC() // the next set-up starts from the heap a fresh process has, off the clock
		t0 = time.Now()
	}

	res := result{Metrics: map[string]metricValue{}}
	if opt.trace {
		tr := newTracer(w.name)
		vals, err := tracedPass(w, opt.seed, opt.size, tr)
		if err != nil {
			return result{Attempted: 1, Failed: 1}, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
		path := filepath.Join(opt.outDir, fmt.Sprintf("trace-%s-%d.json", w.name, opt.seed))
		if err := tr.write(path); err != nil {
			return result{}, err
		}
		for _, m := range layerMetrics() {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		res.Correct, res.Attempted = true, 1
		fmt.Fprintf(os.Stderr, "benchmark: %s seed=%d inputs=%#x traced pass: %d spans in %s\n",
			w.name, opt.seed, inputs, len(tr.spans), path)
		return res, nil
	}

	samples, failed := timedReps(w, opt.minReps, opt.seconds)
	res.Failed = failed
	res.Attempted = len(samples)
	res.Correct = res.Failed == 0
	values := map[string]float64{
		"setup_s":          median(setupS),
		"wall_s_p50":       medianOf(samples, wallSeconds),
		"alloc_mb_per_run": medianOf(samples, func(s sample) float64 { return float64(s.bytes) / 1e6 }),
		"allocs_per_run":   medianOf(samples, func(s sample) float64 { return float64(s.allocs) }),
		"peak_rss_mb":      medianOf(samples, func(s sample) float64 { return s.rssMB }),
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{values[m.name], m.unit}
	}
	walls := make([]float64, len(samples))
	for i, s := range samples {
		walls[i] = s.wall.Seconds()
	}
	q1, q3 := quartiles(walls)
	fmt.Fprintf(os.Stderr, "benchmark: %s seed=%d inputs=%#x reps=%d failed=%d wall q1=%.4f q3=%.4f setups=%.3v\n",
		w.name, opt.seed, inputs, res.Attempted, res.Failed, q1, q3, setupS)
	return res, nil
}

// timedReps runs repetitions until both minReps and seconds are reached,
// checking each one; it returns what each cost and how many failed.
func timedReps(w *workload, minReps int, seconds float64) (samples []sample, failed int) {
	loop := time.Now()
	for len(samples) < minReps || time.Since(loop).Seconds() < seconds {
		var o outcome
		resetPeakRSS()
		s, err := timed(func() error {
			var err error
			o, err = w.rep(nil)
			return err
		})
		s.rssMB = peakRSSMB()
		if err == nil {
			err = w.verify(o, s.wall)
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "benchmark: %s repetition %d failed: %v\n", w.name, len(samples), err)
		}
		samples = append(samples, s)
	}
	return samples, failed
}
