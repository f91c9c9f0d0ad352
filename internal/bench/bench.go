// Package bench is the experiment harness: it regenerates every table and
// figure from the paper's evaluation section (§5) on the simulated cluster,
// plus the microbenchmarks they are built from.
//
// Each experiment produces a Table that renders as aligned text or CSV; the
// cmd/figures binary drives them, and bench_test.go exposes each as a Go
// benchmark. Where the paper printed a figure, the table holds the plotted
// series (one row per x-value, one column per curve).
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"viampi/internal/simnet"
	"viampi/internal/sweep"
)

// Options tunes experiment execution.
type Options struct {
	// Quick shrinks iteration counts, problem classes and process counts so
	// the whole suite runs in seconds (used by tests and -quick).
	Quick bool
	Seed  int64
	// Workers bounds the batch-runner pool the grid experiments fan their
	// hermetic simulation cells over; <= 0 means GOMAXPROCS. Every rendered
	// artifact is byte-identical for every value — only wall time changes.
	Workers int
	// Progress, when non-nil, receives the runner's jobs-done/ETA line
	// (drivers pass sweep.Stderr, which is nil unless stderr is a terminal).
	Progress sweep.ProgressFunc
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "## %s — %s\n\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = cell
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// RenderMarkdown writes the table as a GitHub-flavored markdown section.
func (t *Table) RenderMarkdown(w io.Writer) {
	fmt.Fprintf(w, "## %s — %s\n\n", t.ID, t.Title)
	esc := func(s string) string { return strings.ReplaceAll(s, "|", "\\|") }
	cells := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cells[i] = esc(c)
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | "))
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		cells = cells[:0]
		for _, c := range row {
			cells = append(cells, esc(c))
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n*%s*\n", esc(n))
	}
	fmt.Fprintln(w)
}

// RenderCSV writes the table as CSV.
func (t *Table) RenderCSV(w io.Writer) {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cells := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cells[i] = esc(c)
	}
	fmt.Fprintln(w, strings.Join(cells, ","))
	for _, row := range t.Rows {
		cells = cells[:0]
		for _, c := range row {
			cells = append(cells, esc(c))
		}
		fmt.Fprintln(w, strings.Join(cells, ","))
	}
}

// Experiment regenerates one table or figure from the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(opt Options) (*Table, error)
}

// Experiments returns every experiment keyed and ordered by paper artifact.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "BVIA latency vs. number of active VIs", Fig1},
		{"table1", "Average distinct destinations per process (production apps)", Table1},
		{"table2", "Average VIs and resource utilization per process", Table2},
		{"fig2a", "MVICH latency on cLAN (polling / spinwait / on-demand)", Fig2a},
		{"fig2b", "MVICH latency on Berkeley VIA", Fig2b},
		{"fig3a", "MVICH bandwidth on cLAN", Fig3a},
		{"fig3b", "MVICH bandwidth on Berkeley VIA", Fig3b},
		{"fig4a", "Barrier latency vs. processes on cLAN", Fig4a},
		{"fig4b", "Barrier latency vs. processes on Berkeley VIA", Fig4b},
		{"fig5a", "Allreduce latency on cLAN", Fig5a},
		{"fig5b", "Allreduce latency on Berkeley VIA", Fig5b},
		{"fig6", "NPB normalized time on cLAN (MG, IS, CG, SP, BT)", Fig6},
		{"fig7", "NPB normalized time on Berkeley VIA (IS, CG, EP, SP, BT)", Fig7},
		{"fig8a", "MPI_Init time on cLAN (client-server / peer-to-peer / on-demand)", Fig8a},
		{"fig8b", "MPI_Init time on Berkeley VIA", Fig8b},
		{"table3", "Actual NPB CPU times", Table3},
		// Extensions beyond the paper's evaluation.
		{"ext-scale", "Scaling extension: init time / pinned memory to 128 procs", ExtScale},
		{"ext-dynamic", "Future-work extension: dynamic per-VI flow control", ExtDynamic},
		{"ext-ib", "InfiniBand extension: the issue outlives VIA (paper §6)", ExtIB},
		{"ext-apps", "Table 1 app patterns measured on the stack", ExtApps},
		{"ext-npb", "FT and LU — the kernels the paper omitted", ExtNpb},
		{"ext-evict", "Eviction extension: latency vs. VI cap (Berkeley VIA)", ExtEvict},
		{"ext-init", "Init-cost extension: startup and first-message cost to 4096 procs", ExtInit},
		{"ext-micro", "Micro snapshot in exact integers (virtual ns, events, bytes)", ExtMicro},
		{"ext-vibe", "VIA substrate without MPI (VIBe-style microbenchmarks)", ExtVibe},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
}

// fmtMicros renders a duration as microseconds with 1 decimal.
func fmtMicros(d simnet.Duration) string { return fmt.Sprintf("%.1f", d.Micros()) }

// fmtF renders a float compactly.
func fmtF(v float64) string { return fmt.Sprintf("%.2f", v) }
