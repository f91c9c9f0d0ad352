package bench

import (
	"bytes"
	"encoding/xml"
	"strings"
	"testing"
)

func chartTable() *Table {
	t := &Table{
		ID:      "x",
		Title:   "Latency & <sizes>",
		Columns: []string{"procs", "static (us)", "ondemand (us)", "note"},
	}
	t.AddRow("2", "7.5", "7.5", "hello")
	t.AddRow("4", "20.0", "19.0", "world")
	t.AddRow("8", "30.0", "25.5", "!")
	return t
}

// svgCounts parses the SVG and tallies elements.
func svgCounts(t *testing.T, data []byte) map[string]int {
	t.Helper()
	dec := xml.NewDecoder(bytes.NewReader(data))
	counts := map[string]int{}
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		if se, ok := tok.(xml.StartElement); ok {
			counts[se.Name.Local]++
		}
	}
	if counts["svg"] != 1 {
		t.Fatalf("not a single-rooted svg: %v", counts)
	}
	return counts
}

func TestRenderSVGStructure(t *testing.T) {
	tb := chartTable()
	var buf bytes.Buffer
	if err := tb.RenderSVG(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	counts := svgCounts(t, buf.Bytes())

	// Two numeric series (the "note" column is skipped): 2 polylines,
	// 2 series x 3 rows markers each with a tooltip.
	if counts["polyline"] != 2 {
		t.Errorf("polylines = %d, want 2", counts["polyline"])
	}
	if counts["circle"] != 6 {
		t.Errorf("markers = %d, want 6", counts["circle"])
	}
	if counts["title"] != 6 {
		t.Errorf("tooltips = %d, want 6", counts["title"])
	}
	// Legend swatches for >= 2 series.
	if counts["rect"] < 3 { // surface + 2 legend swatches
		t.Errorf("rects = %d, want >= 3", counts["rect"])
	}
	// Escaping: the title's "&" and "<" must be escaped.
	if strings.Contains(out, "Latency & <sizes>") {
		t.Error("unescaped title")
	}
	if !strings.Contains(out, "Latency &amp; &lt;sizes&gt;") {
		t.Error("escaped title missing")
	}
	// Direct end-labels present for both series (relief rule).
	if strings.Count(out, "static (us)") < 2 { // legend + end label
		t.Error("missing direct label for series 1")
	}
	// Fixed slot colors in order, never cycled.
	if !strings.Contains(out, seriesPalette[0]) || !strings.Contains(out, seriesPalette[1]) {
		t.Error("fixed palette slots not used in order")
	}
}

func TestRenderSVGDegenerateTables(t *testing.T) {
	small := &Table{ID: "s", Columns: []string{"a", "b"}}
	small.AddRow("1", "2")
	var buf bytes.Buffer
	if err := small.RenderSVG(&buf); err == nil {
		t.Error("single-row table should refuse to chart")
	}
	text := &Table{ID: "t", Columns: []string{"a", "b"}}
	text.AddRow("1", "x")
	text.AddRow("2", "y")
	if err := text.RenderSVG(&buf); err == nil {
		t.Error("non-numeric table should refuse to chart")
	}
}

// TestRenderSVGEveryExperiment parses the chart of every figure-shaped
// experiment (TestGolden pins the bytes; this asserts they are well-formed
// single-rooted SVG).
func TestRenderSVGEveryExperiment(t *testing.T) {
	for _, e := range Experiments() {
		if !strings.HasPrefix(e.ID, "fig") {
			continue
		}
		var buf bytes.Buffer
		if err := quickTable(t, e.ID, 2).RenderSVG(&buf); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		svgCounts(t, buf.Bytes())
	}
}

func TestFmtTick(t *testing.T) {
	cases := map[float64]string{0.5: "0.50", 15: "15.0", 1500: "1500", -12: "-12.0"}
	for v, want := range cases {
		if got := fmtTick(v); got != want {
			t.Errorf("fmtTick(%v) = %q, want %q", v, got, want)
		}
	}
}
