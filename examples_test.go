package viampi

// Smoke tests that build and run every example binary with small arguments,
// guarding the examples against rot, and golden tests that hold the drivers
// to the bytes the library produces. They build with the go tool, so they
// skip under -short.

import (
	"bytes"
	"context"
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

// runBinary runs a built example under runDeadline and returns its stdout.
func runBinary(t *testing.T, bin string, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil && ctx.Err() != nil {
		err = fmt.Errorf("still running after %v, killed", runDeadline)
	}
	if err != nil {
		t.Fatalf("%s %s: %v\n%s%s", filepath.Base(bin), strings.Join(args, " "), err, out, stderr.Bytes())
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

func TestToolMicrobench(t *testing.T) {
	out := runExample(t, "./cmd/microbench", "-op", "barrier", "-procs", "4", "-iters", "10")
	if !strings.Contains(out, "barrier on 4 procs") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}
