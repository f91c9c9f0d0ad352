package benchmark

// Tier-1 tests: every workload and the whole traced pass at toy size, the
// negative tests that show each correctness check can fail, the comparison
// rule, and the agreement between BENCHMARK.json and the harness's own
// tables. They keep the harness compiling against the layer APIs, so a
// refactor that breaks it fails `go test ./...` at once.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

func toyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 1, trace: trace, size: toy,
		setups: 1, minReps: 2, outDir: t.TempDir(), start: time.Now()}
}

func TestSmokeWorkloads(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, err := runBenchmark(toyOptions(t, name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				if got := res.Metrics[m.name]; got.Unit != m.unit || got.Value <= 0 {
					t.Errorf("%s = %+v, want a positive value in %s", m.name, got, m.unit)
				}
			}
		})
	}
}

func TestSmokeTracedPass(t *testing.T) {
	opt := toyOptions(t, "evict_churn", true)
	res, err := runBenchmark(opt)
	if err != nil {
		t.Fatal(err)
	}
	want := layerMetrics()
	if !res.Correct || len(res.Metrics) != len(want) {
		t.Errorf("correct=%v with %d metrics, want %d", res.Correct, len(res.Metrics), len(want))
	}
	for _, m := range want {
		if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
			t.Errorf("%s = %+v (present=%v), want unit %s", m.name, got, ok, m.unit)
		}
	}
	for _, name := range []string{"mpi.rt_ns", "via.conn_ns", "simnet.events", "core.evictions", "sweep.speedup"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0 on evict_churn", name, res.Metrics[name].Value)
		}
	}

	data, err := os.ReadFile(filepath.Join(opt.outDir, "trace-evict_churn-1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct{ Spans []span }
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	if len(trace.Spans) == 0 {
		t.Fatal("trace holds no spans")
	}
	for i, s := range trace.Spans {
		if s.Parent >= i || s.EndNs < s.StartNs || s.Workload != "evict_churn" {
			t.Errorf("span %d malformed: %+v", i, s)
		}
	}
}

// TestChecksCatch breaks one thing per case and requires the harness to
// count failed ops instead of passing silently.
func TestChecksCatch(t *testing.T) {
	failedAfter := func(t *testing.T, w *workload, tamper func()) int {
		t.Helper()
		if _, err := w.setup(2); err != nil {
			t.Fatal(err)
		}
		tamper()
		_, failed := timedReps(w, 2, 0)
		return failed
	}
	t.Run("wrong expected checksum", func(t *testing.T) {
		w := evictChurn(toy, 4)
		if failedAfter(t, w, func() { w.ref.sum ^= 1 }) == 0 {
			t.Error("a wrong expected checksum went unnoticed")
		}
	})
	t.Run("event count differs between repetitions", func(t *testing.T) {
		w := pingpong8b(toy)
		if failedAfter(t, w, func() { w.ref.events++ }) == 0 {
			t.Error("a mismatched EventCount went unnoticed")
		}
	})
	t.Run("reused figures_quick seed", func(t *testing.T) {
		var last int64
		stuck := false
		w := figuresQuick(toy, func(base int64) int64 {
			if !stuck {
				last = freshFigSeed(base)
			}
			return last
		})
		if failedAfter(t, w, func() { stuck = true }) == 0 {
			t.Error("a repetition served from the NPB cache went unnoticed")
		}
	})
	t.Run("cap too large to evict", func(t *testing.T) {
		res, err := runBenchmarkWith(evictChurn(toy, 64), toyOptions(t, "evict_churn", false))
		if err == nil || res.Failed == 0 {
			t.Errorf("a run that never evicted passed: failed=%d err=%v", res.Failed, err)
		}
	})
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02}
	scale := func(f float64) []float64 {
		v := make([]float64, len(base))
		for i, x := range base {
			v[i] = x * f
		}
		return v
	}
	noisy := []float64{1.0, 1.4, 0.7, 1.3, 0.8, 1.0, 1.5, 0.6, 1.1, 0.9}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", base, "same"},
		{"worse", scale(1.2), "worse"},
		{"better", scale(0.8), "better"},
		{"within bound", scale(1.05), "same"},
		{"unresolved", noisy, "unresolved"},
	} {
		if got := judge(base, c.b, 0.10).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesWallAcrossHostsAndRunLengths(t *testing.T) {
	doc, err := loadBenchmarkDoc()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(cpus int, seconds float64) *setDoc {
		s := &setDoc{Host: hostShape{NumCPU: cpus}, Seconds: seconds}
		for seed := int64(1); seed <= 3; seed++ {
			r := setRun{Workload: "mesh_boot", Seed: seed, result: result{Metrics: map[string]metricValue{}}}
			for _, m := range endToEnd {
				r.Metrics[m.name] = metricValue{Value: 1 + float64(seed)/1000, Unit: m.unit}
			}
			s.Runs = append(s.Runs, r)
		}
		return s
	}
	for _, c := range []struct {
		name string
		b    *setDoc
		want bool // wall metrics refused
	}{
		{"same host and length", mk(2, 15), false},
		{"another host", mk(8, 15), true},
		{"another run length", mk(2, 10), true},
	} {
		var out bytes.Buffer
		for _, r := range compareSets(&out, mk(2, 15), c.b, doc) {
			if refused := strings.HasPrefix(r.verdict, "refused"); refused != (c.want && wallMetric(r.metric)) {
				t.Errorf("%s: %s: verdict %q", c.name, r.metric, r.verdict)
			}
		}
	}
}

// TestBenchmarkDocument holds BENCHMARK.json to the harness's own tables
// and to the limits of the contract it is written to.
func TestBenchmarkDocument(t *testing.T) {
	doc, err := loadBenchmarkDoc()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if !slices.Equal(doc.Paths, []string{"benchmark"}) || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	var workloads []string
	for _, w := range doc.Workloads {
		name("workload", w.Name)
		workloads = append(workloads, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !slices.Equal(workloads, workloadNames()) {
		t.Errorf("workloads %v, harness runs %v", workloads, workloadNames())
	}

	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, harness reports %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		name("end-to-end", m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Better != "lower" || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end %d is %+v, harness reports %+v, lower is better", i, m, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25], the contract's range", m.Name, m.Bound)
		}
	}

	want := layerMetrics()
	if len(want) > 128 || len(doc.PerLayer) != len(want) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, harness reports %d (limit 128)", len(doc.PerLayer), len(want))
	}
	for i, m := range want {
		name("per-layer", m.name)
		got := doc.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || !unitRE.MatchString(m.unit) {
			t.Errorf("per-layer %d is %+v, harness reports %s in %s, %s is better", i, got, m.name, m.unit, m.better)
		}
		// The interaction prediction must point at things that exist.
		if m.moves != "" && !slices.ContainsFunc(endToEnd, func(e struct{ name, unit string }) bool { return e.name == m.moves }) {
			t.Errorf("%s is predicted to move %q, which is not an end-to-end metric", m.name, m.moves)
		}
		if (m.moves == "") != (len(m.on) == 0) {
			t.Errorf("%s: a predicted metric needs workloads and the reverse (moves=%q on=%v)", m.name, m.moves, m.on)
		}
		for _, w := range m.on {
			if !slices.Contains(workloads, w) {
				t.Errorf("%s is predicted to move %s on %q, which is not a workload", m.name, m.moves, w)
			}
		}
	}
}
