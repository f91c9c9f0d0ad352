package benchmark

// Sets and their comparison. A set is every workload run runsPerSet times,
// each run a fresh process with its own seed; -compare judges two sets row by
// row against the bounds BENCHMARK.json fixes, and -selfcheck runs two sets
// of the same code to show the benchmark agrees with itself.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchmarkDoc mirrors BENCHMARK.json.
type benchmarkDoc struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadBenchmarkDoc finds BENCHMARK.json at the repository root, whether the
// process runs there (run.sh) or in the package directory (go test).
func loadBenchmarkDoc() (*benchmarkDoc, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var doc benchmarkDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &doc, nil
}

// setDoc is one set: the host it ran on and every run's result document.
type setDoc struct {
	Host    hostShape `json:"host"`
	Seconds float64   `json:"seconds"`
	Runs    []setRun  `json:"runs"`
}

type setRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	result
}

// runsPerSet is how many runs of each workload make a set: the comparison
// rule needs ten seed-matched pairs, and quartiles of ten are what judges
// this benchmark's spread.
const runsPerSet = 10

// runSet runs every workload runsPerSet times in child processes of this
// binary (so heap state and peak RSS never leak between runs) and writes
// the set document to path.
func runSet(path string) (*setDoc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	seconds, err := runSeconds()
	if err != nil {
		return nil, err
	}
	set := &setDoc{Host: readHostShape(), Seconds: seconds}
	for _, w := range workloadNames() {
		for seed := int64(1); seed <= runsPerSet; seed++ {
			cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			run := setRun{Workload: w, Seed: seed}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.result); err != nil {
				return nil, fmt.Errorf("%s seed %d: result line: %w", w, seed, err)
			}
			if !run.Correct {
				return nil, fmt.Errorf("%s seed %d: %d of %d ops failed", w, seed, run.Failed, run.Attempted)
			}
			set.Runs = append(set.Runs, run)
		}
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return nil, err
	}
	return set, os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSet(path string) (*setDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set setDoc
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// values collects one metric of one workload across a set's runs, in seed order.
func (s *setDoc) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range s.Runs {
		if r.Workload == workload {
			v = append(v, r.Metrics[metric].Value)
		}
	}
	return v
}

// row is one (workload, end-to-end metric) comparison. All end-to-end
// metrics are lower-is-better, so ratio > 1 means b is worse.
type row struct {
	workload, metric       string
	medA, medB, iqrA, iqrB float64
	ratio                  float64 // medB / medA
	verdict                string
}

// judge compares two samples of one metric under its bound, by the rule in
// the choosing-metrics guide: beyond the bound is worse; a gain needs b to
// win nine tenths of the seed-matched pairs and the medians to differ by
// more than a's own spread; and where either side's spread exceeds the
// bound the row is unresolved unless every b reads better than every a.
func judge(a, b []float64, bound float64) row {
	r := row{medA: median(a), medB: median(b)}
	q1, q3 := quartiles(a)
	r.iqrA = q3 - q1
	q1, q3 = quartiles(b)
	r.iqrB = q3 - q1
	r.ratio = r.medB / r.medA
	switch {
	case r.iqrA/r.medA > bound || r.iqrB/r.medB > bound:
		r.verdict = "unresolved"
		if slices.Max(b) < slices.Min(a) {
			r.verdict = "better"
		}
	case r.ratio > 1+bound:
		r.verdict = "worse"
	case r.medA-r.medB > r.iqrA && wins(a, b)*10 >= 9*min(len(a), len(b)):
		r.verdict = "better"
	default:
		r.verdict = "same"
	}
	return r
}

// wins counts the seed-matched pairs in which b reads lower than a.
func wins(a, b []float64) int {
	n := 0
	for i := 0; i < min(len(a), len(b)); i++ {
		if b[i] < a[i] {
			n++
		}
	}
	return n
}

// wallMetric reports whether a metric is host time, which only compares
// between runs of the same length on the same host shape.
func wallMetric(name string) bool { return name == "wall_s_p50" || name == "setup_s" }

// compareSets judges every (workload, end-to-end metric) pair and prints
// the table. Wall metrics get no verdict when the host shapes differ, or the
// run lengths: the length sets the repetition count and so the median's noise.
func compareSets(out io.Writer, a, b *setDoc, doc *benchmarkDoc) []row {
	sameHost := a.Host == b.Host
	sameLength := a.Seconds == b.Seconds
	var rows []row
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian a\tIQR a\tmedian b\tIQR b\tb/a\tbound\tverdict")
	for _, w := range doc.Workloads {
		for _, m := range doc.EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) < 2 || len(vb) < 2 {
				continue
			}
			r := judge(va, vb, m.Bound)
			r.workload, r.metric = w.Name, m.Name
			switch {
			case !wallMetric(m.Name):
			case !sameHost:
				r.verdict = "refused (host shapes differ)"
			case !sameLength:
				r.verdict = "refused (run lengths differ)"
			}
			rows = append(rows, r)
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.3g\t%.6g\t%.3g\t%.4f of %.6g\t%.2f\t%s\n",
				r.workload, r.metric, r.medA, r.iqrA, r.medB, r.iqrB, r.ratio, r.medA, m.Bound, r.verdict)
		}
	}
	tw.Flush()
	if !sameHost {
		fmt.Fprintf(out, "host a: %+v\nhost b: %+v\n", a.Host, b.Host)
	}
	if !sameLength {
		fmt.Fprintf(out, "run length a: %v s\nrun length b: %v s\n", a.Seconds, b.Seconds)
	}
	return rows
}

func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two set documents, got %d arguments", len(args))
	}
	doc, err := loadBenchmarkDoc()
	if err != nil {
		return err
	}
	a, err := readSet(args[0])
	if err != nil {
		return err
	}
	b, err := readSet(args[1])
	if err != nil {
		return err
	}
	compareSets(os.Stdout, a, b, doc)
	return nil
}

// selfcheckMain runs two sets of the same code and fails if any pair of
// medians is further apart than the metric's bound, in either direction.
func selfcheckMain() error {
	doc, err := loadBenchmarkDoc()
	if err != nil {
		return err
	}
	dir, err := outDir()
	if err != nil {
		return err
	}
	var sets [2]*setDoc
	for i, name := range []string{"selfcheck-a.json", "selfcheck-b.json"} {
		if sets[i], err = runSet(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	bounds := map[string]float64{}
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	var off []string
	for _, r := range compareSets(os.Stdout, sets[0], sets[1], doc) {
		if b := bounds[r.metric]; r.ratio > 1+b || 1/r.ratio > 1+b {
			off = append(off, fmt.Sprintf("%s %s: medians %.6g and %.6g differ by more than %.0f%%",
				r.workload, r.metric, r.medA, r.medB, b*100))
		}
	}
	if len(off) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(off, "\n  "))
	}
	fmt.Println("selfcheck passed: every pair of medians agrees within its bound")
	return nil
}
