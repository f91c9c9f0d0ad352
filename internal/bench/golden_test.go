package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the live experiments")

// rendering is one committed form of a table: the golden file's name and
// the bytes cmd/figures would write for it.
type rendering struct{ file, content string }

// renderings renders a table the way cmd/figures does: text (stdout), CSV
// (-csv), markdown (-report) and, for the figure-shaped experiments, the SVG
// chart (-svg).
func renderings(t *testing.T, tb *Table) []rendering {
	t.Helper()
	var txt, csv, md bytes.Buffer
	tb.Render(&txt)
	tb.RenderCSV(&csv)
	tb.RenderMarkdown(&md)
	out := []rendering{
		{tb.ID + ".txt", txt.String()},
		{tb.ID + ".csv", csv.String()},
		{tb.ID + ".md", md.String()},
	}
	if strings.HasPrefix(tb.ID, "fig") {
		var svg bytes.Buffer
		if err := tb.RenderSVG(&svg); err != nil {
			t.Fatalf("%s: svg: %v", tb.ID, err)
		}
		out = append(out, rendering{tb.ID + ".svg", svg.String()})
	}
	return out
}

// TestGolden pins virtual time: every experiment, run in quick mode at
// Workers 2 and 1 and rendered in every committed format, must equal
// testdata/golden byte for byte. A change that moves a virtual-time number,
// a rendering, or lets the batch runner's completion order reach an artifact
// fails here naming the file and the first differing line. After a deliberate
// change, regenerate with `make golden` (go test ./internal/bench -run
// TestGolden -update) and review the diff.
//
// Workers=2 goes first: the NPB memo is shared between the passes, so its
// cells are computed under the parallel merge — the path that could leak
// completion order — and the sequential pass re-renders them.
func TestGolden(t *testing.T) {
	for pass, workers := range []int{2, 1} {
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			for _, e := range Experiments() {
				for _, r := range renderings(t, quickTable(t, e.ID, workers)) {
					path := filepath.Join("testdata", "golden", r.file)
					if *update && pass == 0 {
						if err := os.WriteFile(path, []byte(r.content), 0o644); err != nil {
							t.Fatal(err)
						}
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("reading golden file (regenerate with -update): %v", err)
					}
					if line, got, exp := firstDiff(r.content, string(want)); line > 0 {
						t.Errorf("%s at Workers=%d differs from %s at line %d:\n  got  %q\n  want %q\nreview the change, then regenerate with `make golden`",
							r.file, workers, path, line, got, exp)
					}
				}
			}
		})
	}
}

// firstDiff reports the first line (1-based) at which got and want differ,
// or line 0 when they are equal.
func firstDiff(got, want string) (line int, g, w string) {
	if got == want {
		return 0, "", ""
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		g, w = "", ""
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return i + 1, g, w
		}
	}
}
