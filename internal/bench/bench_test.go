package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

var quick = Options{Quick: true, Seed: 1}

// quickTables memoises one quick-mode run per (experiment, Workers), so the
// shape tests below, the SVG test and TestGolden read the same tables and
// each experiment runs once per worker count in the whole package. The shape
// tests read the Workers=2 tables, the ones TestGolden's first pass needs.
var quickTables = map[tableKey]*Table{}

type tableKey struct {
	id      string
	workers int
}

func quickTable(t *testing.T, id string, workers int) *Table {
	t.Helper()
	key := tableKey{id, workers}
	if tb, ok := quickTables[key]; ok {
		return tb
	}
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	opt := quick
	opt.Workers = workers
	tb, err := e.Run(opt)
	if err != nil {
		t.Fatalf("%s at Workers=%d: %v", id, workers, err)
	}
	quickTables[key] = tb
	return tb
}

// cell parses a table cell as float.
func cell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(tb.Rows[row][col]), 64)
	if err != nil {
		t.Fatalf("cell(%d,%d) = %q: %v", row, col, tb.Rows[row][col], err)
	}
	return v
}

func TestExperimentRegistry(t *testing.T) {
	if len(Experiments()) != 25 {
		t.Fatalf("have %d experiments, want 25 (every paper table+figure plus 9 extensions)", len(Experiments()))
	}
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	if _, err := ByID("fig4a"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("expected unknown-id error")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Columns: []string{"a", "b"}, Notes: []string{"n"}}
	tb.AddRow("1", "hello,\"world\"")
	var buf bytes.Buffer
	tb.Render(&buf)
	if !strings.Contains(buf.String(), "hello") || !strings.Contains(buf.String(), "note: n") {
		t.Fatalf("render output missing content:\n%s", buf.String())
	}
	buf.Reset()
	tb.RenderCSV(&buf)
	if !strings.Contains(buf.String(), `"hello,""world"""`) {
		t.Fatalf("csv escaping broken:\n%s", buf.String())
	}
	buf.Reset()
	md := &Table{ID: "m", Title: "M", Columns: []string{"a|x", "b"}, Notes: []string{"note"}}
	md.AddRow("1|2", "v")
	md.RenderMarkdown(&buf)
	out := buf.String()
	if !strings.Contains(out, `a\|x`) || !strings.Contains(out, `1\|2`) {
		t.Fatalf("markdown pipe escaping broken:\n%s", out)
	}
	if !strings.Contains(out, "| --- | --- |") || !strings.Contains(out, "*note*") {
		t.Fatalf("markdown structure broken:\n%s", out)
	}
}

func TestFig1Shape(t *testing.T) {
	tb := quickTable(t, "fig1", 2)
	// Latency must increase monotonically with the VI count on BVIA.
	prev := 0.0
	for i := range tb.Rows {
		l := cell(t, tb, i, 1)
		if l <= prev {
			t.Fatalf("fig1 not monotonically increasing at row %d: %v <= %v", i, l, prev)
		}
		prev = l
	}
}

func TestTable1Complete(t *testing.T) {
	tb := quickTable(t, "table1", 2)
	if len(tb.Rows) != 12 { // 6 apps x 2 sizes
		t.Fatalf("table1 rows = %d, want 12", len(tb.Rows))
	}
}

func TestFig2LatencyShapes(t *testing.T) {
	tb := quickTable(t, "fig2a", 2)
	// All three mechanisms agree at small sizes (paper: same performance).
	p0 := cell(t, tb, 0, 1)
	s0 := cell(t, tb, 0, 2)
	o0 := cell(t, tb, 0, 3)
	if rel(p0, o0) > 0.05 {
		t.Errorf("fig2a: ondemand small-msg latency %v deviates from polling %v", o0, p0)
	}
	if rel(p0, s0) > 0.10 {
		t.Errorf("fig2a: spinwait small-msg latency %v deviates from polling %v", s0, p0)
	}
	// Latency grows with size.
	if cell(t, tb, len(tb.Rows)-1, 1) <= p0 {
		t.Error("fig2a latency did not grow with size")
	}
	// cLAN latency in a plausible band (paper-era: ~10-20us small messages).
	if p0 < 5 || p0 > 40 {
		t.Errorf("fig2a small-message latency %vus outside plausible band", p0)
	}
	tb2 := quickTable(t, "fig2b", 2)
	b0 := cell(t, tb2, 0, 1)
	if b0 <= p0 {
		t.Errorf("BVIA latency %v not above cLAN %v", b0, p0)
	}
}

func rel(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if a == 0 {
		return 0
	}
	return d / a
}

func TestFig3BandwidthShapes(t *testing.T) {
	tb := quickTable(t, "fig3a", 2)
	// Find the 4999 and 5001 rows: the eager->rendezvous switch must dent
	// the curve (paper notes the jump at the 5000-byte threshold).
	var bw4999, bw5001, bwBig float64
	for i := range tb.Rows {
		switch tb.Rows[i][0] {
		case "4999":
			bw4999 = cell(t, tb, i, 1)
		case "5001":
			bw5001 = cell(t, tb, i, 1)
		case "65536":
			bwBig = cell(t, tb, i, 1)
		}
	}
	if bw5001 >= bw4999 {
		t.Errorf("fig3a: no dip across the eager/rendezvous threshold (%v -> %v)", bw4999, bw5001)
	}
	if bwBig <= bw5001 {
		t.Errorf("fig3a: bandwidth does not recover at large sizes (%v vs %v)", bwBig, bw5001)
	}
	// Asymptotic bandwidth approaches the 113 MB/s link.
	if bwBig < 60 || bwBig > 113 {
		t.Errorf("fig3a: large-message bandwidth %v MB/s outside band", bwBig)
	}
}

func TestFig4BarrierShapes(t *testing.T) {
	tb := quickTable(t, "fig4a", 2)
	last := len(tb.Rows) - 1
	poll := cell(t, tb, last, 1)
	spin := cell(t, tb, last, 2)
	od := cell(t, tb, last, 3)
	if spin <= poll {
		t.Errorf("fig4a: spinwait barrier %v not worse than polling %v", spin, poll)
	}
	if rel(poll, od) > 0.10 {
		t.Errorf("fig4a: ondemand %v deviates >10%% from polling %v", od, poll)
	}
	tb2 := quickTable(t, "fig4b", 2)
	last = len(tb2.Rows) - 1
	st := cell(t, tb2, last, 1)
	odb := cell(t, tb2, last, 2)
	if odb >= st {
		t.Errorf("fig4b: BVIA ondemand barrier %v not faster than static %v (paper: 161 vs 196)", odb, st)
	}
}

func TestFig5AllreduceShapes(t *testing.T) {
	tb := quickTable(t, "fig5b", 2)
	last := len(tb.Rows) - 1
	st := cell(t, tb, last, 1)
	od := cell(t, tb, last, 2)
	if od >= st {
		t.Errorf("fig5b: BVIA ondemand allreduce %v not faster than static %v", od, st)
	}
}

func TestFig8InitShapes(t *testing.T) {
	tb := quickTable(t, "fig8a", 2)
	last := len(tb.Rows) - 1
	cs := cell(t, tb, last, 1)
	p2p := cell(t, tb, last, 2)
	od := cell(t, tb, last, 3)
	if !(od < p2p && p2p < cs) {
		t.Errorf("fig8a ordering broken: od=%v p2p=%v cs=%v", od, p2p, cs)
	}
	// Init time grows with procs for static, stays near-flat for on-demand.
	odFirst := cell(t, tb, 0, 3)
	csFirst := cell(t, tb, 0, 1)
	if cs/csFirst < 2 {
		t.Errorf("fig8a: client-server init did not grow with procs (%v -> %v)", csFirst, cs)
	}
	if od/odFirst > 3 {
		t.Errorf("fig8a: on-demand init grew too much (%v -> %v)", odFirst, od)
	}
}

func TestTable2Shapes(t *testing.T) {
	tb := quickTable(t, "table2", 2)
	byName := map[string][]int{}
	for i, row := range tb.Rows {
		byName[row[0]] = append(byName[row[0]], i)
	}
	for name, rows := range byName {
		for _, i := range rows {
			procs := cell(t, tb, i, 1)
			static := cell(t, tb, i, 2)
			od := cell(t, tb, i, 3)
			utilS := cell(t, tb, i, 4)
			utilO := cell(t, tb, i, 5)
			if static != procs-1 {
				t.Errorf("table2 %s: static VIs %v != N-1 (%v)", name, static, procs-1)
			}
			if od > static {
				t.Errorf("table2 %s: ondemand VIs %v > static %v", name, od, static)
			}
			if utilO != 1.0 {
				t.Errorf("table2 %s: ondemand utilization %v != 1.0", name, utilO)
			}
			if utilS > 1.0 {
				t.Errorf("table2 %s: static utilization %v > 1", name, utilS)
			}
			// Pinned memory tracks VI count.
			pinS := cell(t, tb, i, 6)
			pinO := cell(t, tb, i, 7)
			if od < static && pinO >= pinS {
				t.Errorf("table2 %s: pinned memory did not shrink (%v vs %v)", name, pinO, pinS)
			}
		}
	}
	// Alltoall (and IS) are fully connected even on-demand.
	for _, i := range byName["Alltoall"] {
		if cell(t, tb, i, 3) != cell(t, tb, i, 1)-1 {
			t.Errorf("table2 Alltoall: ondemand VIs %v != N-1", tb.Rows[i][3])
		}
		if cell(t, tb, i, 4) != 1.0 {
			t.Errorf("table2 Alltoall: static utilization should be 1.0")
		}
	}
	// Ring uses exactly 2.
	for _, i := range byName["Ring"] {
		if cell(t, tb, i, 3) != 2 {
			t.Errorf("table2 Ring: ondemand VIs %v != 2", tb.Rows[i][3])
		}
	}
}

func TestFig6Fig7Table3Shapes(t *testing.T) {
	f6 := quickTable(t, "fig6", 2)
	for i, row := range f6.Rows {
		spin := cell(t, f6, i, 1)
		od := cell(t, f6, i, 2)
		if od > 1.15 {
			t.Errorf("fig6 %s: on-demand normalized %v, want ~1 (paper: <2%% loss)", row[0], od)
		}
		if spin < 0.99 {
			t.Errorf("fig6 %s: spinwait %v better than polling?", row[0], spin)
		}
	}
	f7 := quickTable(t, "fig7", 2)
	for i, row := range f7.Rows {
		od := cell(t, f7, i, 1)
		// Quick mode runs class S, which is too short to amortize the
		// in-region connection setup the paper discusses; allow 5%.
		if od > 1.05 {
			t.Errorf("fig7 %s: on-demand normalized %v, want <= ~1 on BVIA", row[0], od)
		}
	}
	t3 := quickTable(t, "table3", 2)
	if len(t3.Rows) != len(clanCases(quick))+len(bviaCases(quick)) {
		t.Fatalf("table3 rows = %d", len(t3.Rows))
	}
	// The memo cache must have made table3 reuse fig6/fig7 runs.
	if len(npbCache) == 0 {
		t.Fatal("npb cache empty")
	}
}

func TestExtensionExperiments(t *testing.T) {
	sc := quickTable(t, "ext-scale", 2)
	// Static-cs init grows superlinearly; on-demand stays near-flat; static
	// pinned memory grows quadratically in total while on-demand is linear.
	first, last := 0, len(sc.Rows)-1
	growCS := cell(t, sc, last, 1) / cell(t, sc, first, 1)
	growOD := cell(t, sc, last, 3) / cell(t, sc, first, 3)
	if growCS < 2*growOD {
		t.Errorf("ext-scale: static-cs init growth %.1fx not >> on-demand %.1fx", growCS, growOD)
	}
	pinS := cell(t, sc, last, 4)
	pinO := cell(t, sc, last, 5)
	if pinS < 5*pinO {
		t.Errorf("ext-scale: static pinned %.1f MB not >> on-demand %.1f MB", pinS, pinO)
	}

	dy := quickTable(t, "ext-dynamic", 2)
	if len(dy.Rows) != 3 {
		t.Fatalf("ext-dynamic rows = %d", len(dy.Rows))
	}
	pinStatic := cell(t, dy, 0, 2)
	pinOD := cell(t, dy, 1, 2)
	pinDyn := cell(t, dy, 2, 2)
	if !(pinDyn < pinOD && pinOD < pinStatic) {
		t.Errorf("ext-dynamic pinned ordering broken: %v < %v < %v expected",
			pinDyn, pinOD, pinStatic)
	}
	// Dynamic flow control must not blow up run time.
	tStatic := cell(t, dy, 0, 3)
	tDyn := cell(t, dy, 2, 3)
	if tDyn > tStatic*1.25 {
		t.Errorf("ext-dynamic run time %.3f ms too far above static %.3f ms", tDyn, tStatic)
	}

	ev := quickTable(t, "ext-evict", 2)
	if len(ev.Rows) != 4 {
		t.Fatalf("ext-evict rows = %d", len(ev.Rows))
	}
	// Row 0 is uncapped: the shift pattern touches every peer, so no
	// evictions and a full mesh's worth of pinned memory. The tightest cap
	// (last row) must actually evict and must pin less.
	if ev.Rows[0][4] != "0" {
		t.Errorf("ext-evict uncapped run evicted (%s)", ev.Rows[0][4])
	}
	lastEv := len(ev.Rows) - 1
	if cell(t, ev, lastEv, 4) == 0 {
		t.Error("ext-evict: tightest cap recorded no evictions")
	}
	if cell(t, ev, lastEv, 2) >= cell(t, ev, 0, 2) {
		t.Errorf("ext-evict: cap did not shrink pinned memory (%s vs %s)",
			ev.Rows[lastEv][2], ev.Rows[0][2])
	}
	// The cap trades memory for latency: capped runs cannot be faster.
	if cell(t, ev, lastEv, 3) < cell(t, ev, 0, 3) {
		t.Errorf("ext-evict: capped latency %s below uncapped %s",
			ev.Rows[lastEv][3], ev.Rows[0][3])
	}

	ib := quickTable(t, "ext-ib", 2)
	for i := range ib.Rows {
		lat := cell(t, ib, i, 1)
		if lat >= 7.2 { // must be faster than cLAN's small-message latency
			t.Errorf("ext-ib latency %v not below cLAN", lat)
		}
		stInit := cell(t, ib, i, 2)
		odInit := cell(t, ib, i, 3)
		if odInit >= stInit {
			t.Errorf("ext-ib init ordering broken: %v vs %v", odInit, stInit)
		}
		pinS := cell(t, ib, i, 6)
		pinO := cell(t, ib, i, 7)
		if pinO >= pinS {
			t.Errorf("ext-ib pinned ordering broken: %v vs %v", pinO, pinS)
		}
	}
}
