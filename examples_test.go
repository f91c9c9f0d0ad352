package viampi

// Smoke tests that build and run every example binary with small arguments,
// guarding the examples against rot, and golden tests that hold the drivers
// to the bytes the library produces. They build with the go tool, so they
// skip under -short.

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"viampi/internal/obs/capture"
)

var update = flag.Bool("update", false, "rewrite testdata/mpirun-sim.golden from the live binary")

// runDeadline bounds one run of a built example. Expiry kills the child
// with SIGKILL, which no signal handler can hold up, so a hang fails its
// test and leaves no process behind.
const runDeadline = 30 * time.Second

// buildExample compiles a main package into the test's temp dir and returns
// the binary's path.
func buildExample(t *testing.T, path string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("examples smoke runs in full mode only")
	}
	bin := filepath.Join(t.TempDir(), filepath.Base(path))
	if out, err := exec.Command("go", "build", "-o", bin, path).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", path, err, out)
	}
	return bin
}

// execBinary runs a built example under runDeadline and returns its stdout,
// its stderr and how it exited.
func execBinary(bin string, args ...string) (stdout, stderr []byte, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	stdout, err = cmd.Output()
	if err != nil && ctx.Err() != nil {
		err = fmt.Errorf("still running after %v, killed", runDeadline)
	}
	return stdout, errBuf.Bytes(), err
}

// runBinary runs a built example under runDeadline and returns its stdout;
// a non-zero exit fails the test.
func runBinary(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, stderr, err := execBinary(bin, args...)
	if err != nil {
		t.Fatalf("%s %s: %v\n%s%s", filepath.Base(bin), strings.Join(args, " "), err, out, stderr)
	}
	return string(out)
}

// runExample builds a main package and runs it once.
func runExample(t *testing.T, path string, args ...string) string {
	t.Helper()
	return runBinary(t, buildExample(t, path), args...)
}

// requireSame fails naming the first line at which a tool's output departs
// from the committed bytes it must reproduce.
func requireSame(t *testing.T, what, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n  got  %q\n  want %q\nreview the change, then regenerate with `make golden`", what, i+1, g, w)
		}
	}
}

func TestExampleQuickstart(t *testing.T) {
	out := runExample(t, "./examples/quickstart")
	if !strings.Contains(out, "ondemand") || !strings.Contains(out, "utilization: 1.00") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestExampleStencil(t *testing.T) {
	out := runExample(t, "./examples/stencil", "-np", "9", "-sweeps", "2")
	if !strings.Contains(out, "on-demand touches only neighbours") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestExampleAnysource(t *testing.T) {
	out := runExample(t, "./examples/anysource")
	if !strings.Contains(out, "master VIs: 9") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestExampleNpbmini(t *testing.T) {
	out := runExample(t, "./examples/npbmini", "-bench", "EP", "-class", "S", "-np", "4")
	if !strings.Contains(out, "verified true") || strings.Contains(out, "verified false") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestExampleHeat(t *testing.T) {
	out := runExample(t, "./examples/heat", "-np", "4", "-tile", "8", "-iters", "5")
	if !strings.Contains(out, "final residual") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

// TestExampleTcpring runs the real-socket ring plain and with -record, which
// dumps every rank's flight recorder as each policy's round ends: np
// decodable bundles per policy, each holding its rank's events.
func TestExampleTcpring(t *testing.T) {
	const np = 4
	bin := buildExample(t, "./examples/tcpring")
	out := runBinary(t, bin, "-np", fmt.Sprint(np), "-laps", "5")
	if !strings.Contains(out, "ondemand") || !strings.Contains(out, "static") {
		t.Fatalf("unexpected output:\n%s", out)
	}

	dir := t.TempDir()
	runBinary(t, bin, "-np", fmt.Sprint(np), "-laps", "5", "-record", dir)
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 2*np {
		t.Fatalf("-record left %d files (%v), want %d bundles", len(entries), err, 2*np)
	}
	for _, policy := range []string{"static", "ondemand"} {
		for i := 0; i < np; i++ {
			name := fmt.Sprintf("tcpring-%s-rank%d.bin", policy, i)
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			b, err := capture.ReadBundle(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if b.Header.Policy != policy || len(b.Events) == 0 {
				t.Errorf("%s: policy %q with %d events, want %q with at least one", name, b.Header.Policy, len(b.Events), policy)
			}
		}
	}
}

// TestToolFigures holds the figures driver to the library's goldens: its
// stdout and -csv files for three experiments at -j 2 must be the bytes
// internal/bench's TestGolden pins, so flag handling, the batch runner's
// plumbing and file writing add nothing of their own.
func TestToolFigures(t *testing.T) {
	ids := []string{"ext-vibe", "fig8a", "ext-evict"}
	golden := func(name string) string {
		data, err := os.ReadFile(filepath.Join("internal", "bench", "testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	csv := t.TempDir()
	out := runExample(t, "./cmd/figures", "-run", strings.Join(ids, ","), "-quick", "-q", "-j", "2", "-csv", csv)
	var want string
	for _, id := range ids {
		want += golden(id + ".txt")
		got, err := os.ReadFile(filepath.Join(csv, id+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		requireSame(t, "figures -csv "+id+".csv", string(got), golden(id+".csv"))
	}
	requireSame(t, "figures stdout", out, want)
}

// TestToolMpirunSim pins the full report of one application run — summary,
// communication matrix, call profile, metrics and phase table — against
// testdata/mpirun-sim.golden. Regenerate with `make golden` (go test . -run
// TestToolMpirunSim -update).
func TestToolMpirunSim(t *testing.T) {
	out := runExample(t, "./cmd/mpirun-sim", "-np", "8", "-conn", "ondemand", "-seed", "1",
		"-matrix", "-profile", "-metrics", "-phases", "CG", "S")
	path := filepath.Join("testdata", "mpirun-sim.golden")
	if *update {
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	requireSame(t, "mpirun-sim report vs "+path, out, string(want))
}

// TestToolReplay is the capture/replay round trip on the real binaries:
// mpirun-sim records a run, viampi-replay re-renders its trace from the
// bundle byte for byte, prints the summary, matrix, call profile and phase
// table from it, and gives both -diff verdicts — exit 0 for two seeds of
// one Config (fault-free CG is byte-identical across seeds), non-zero for
// two policies. A bundle mpirun-sim leaves unsealed fails the first replay.
func TestToolReplay(t *testing.T) {
	sim := buildExample(t, "./cmd/mpirun-sim")
	replay := buildExample(t, "./cmd/viampi-replay")
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	record := func(bundle, conn, seed string, extra ...string) {
		args := append([]string{"-np", "8", "-conn", conn, "-seed", seed, "-record", path(bundle)}, extra...)
		runBinary(t, sim, append(args, "CG", "S")...)
	}

	record("a.bin", "ondemand", "1", "-trace", path("live.json"))
	runBinary(t, replay, "-trace", path("replay.json"), path("a.bin"))
	live, err := os.ReadFile(path("live.json"))
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := os.ReadFile(path("replay.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, replayed) {
		t.Fatal("the trace replayed from the bundle differs from the live run's")
	}
	for _, report := range []string{"-summary", "-matrix", "-profile", "-phases"} {
		if out := runBinary(t, replay, report, path("a.bin")); out == "" || strings.Contains(out, ": empty") {
			t.Errorf("viampi-replay %s printed nothing from the bundle:\n%s", report, out)
		}
	}

	record("b.bin", "ondemand", "2")
	runBinary(t, replay, "-q", "-diff", path("a.bin"), path("b.bin"))
	record("c.bin", "static-p2p", "1")
	out, stderr, err := execBinary(replay, "-q", "-diff", path("a.bin"), path("c.bin"))
	var exit *exec.ExitError
	if !errors.As(err, &exit) || len(out) == 0 {
		t.Fatalf("-diff of ondemand vs static-p2p: %v, want a report and a non-zero exit\n%s%s", err, out, stderr)
	}
}

func TestToolMicrobench(t *testing.T) {
	out := runExample(t, "./cmd/microbench", "-op", "barrier", "-procs", "4", "-iters", "10")
	if !strings.Contains(out, "barrier on 4 procs") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}
