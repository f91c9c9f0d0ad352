package viampi

// Smoke tests that build and run every example binary with small arguments,
// guarding the examples against rot, and golden tests that hold the drivers
// to the bytes the library produces. They exec the go tool, so they skip
// under -short.

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/mpirun-sim.golden from the live binary")

// runExample runs a main package with the go tool and returns its stdout.
func runExample(t *testing.T, path string, args ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("examples smoke runs in full mode only")
	}
	cmd := exec.Command("go", append([]string{"run", path}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s: %v\n%s%s", path, err, out, stderr.Bytes())
	}
	return string(out)
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

func TestExampleTcpring(t *testing.T) {
	out := runExample(t, "./examples/tcpring", "-np", "4", "-laps", "5")
	if !strings.Contains(out, "ondemand") || !strings.Contains(out, "static") {
		t.Fatalf("unexpected output:\n%s", out)
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
