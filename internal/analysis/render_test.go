package analysis

import (
	"bytes"
	"sort"
	"strings"
	"testing"
)

// TestRenderDeterministic is the regression test for satellite reproducibility:
// two fully independent loads of the same module must render byte-identical
// text and JSON reports, so vet output can be diffed across runs and CI.
func TestRenderDeterministic(t *testing.T) {
	var texts []string
	var jsons [][]byte
	for i := 0; i < 2; i++ {
		m := loadFixture(t)
		ds := RunAll(m, FixturePolicy())
		texts = append(texts, RenderText(ds))
		j, err := RenderJSON(ds)
		if err != nil {
			t.Fatalf("run %d: RenderJSON: %v", i, err)
		}
		jsons = append(jsons, j)
	}
	if texts[0] != texts[1] {
		t.Errorf("text reports differ between independent runs:\n--- run 0 ---\n%s\n--- run 1 ---\n%s", texts[0], texts[1])
	}
	if !bytes.Equal(jsons[0], jsons[1]) {
		t.Errorf("JSON reports differ between independent runs:\n--- run 0 ---\n%s\n--- run 1 ---\n%s", jsons[0], jsons[1])
	}
	if texts[0] == "" || len(jsons[0]) == 0 {
		t.Fatal("fixture run produced an empty report; determinism check is vacuous")
	}
}

// TestRunAllSorted verifies RunAll's output is already in the canonical
// (file, line, col, rule) order — shuffling and re-sorting is a no-op.
func TestRunAllSorted(t *testing.T) {
	m := loadFixture(t)
	ds := RunAll(m, FixturePolicy())
	if len(ds) < 2 {
		t.Fatal("need at least two fixture diagnostics to check ordering")
	}
	resorted := append([]Diagnostic(nil), ds...)
	// Reverse, then re-sort with the canonical comparator.
	sort.SliceStable(resorted, func(i, j int) bool { return j < i })
	SortDiagnostics(resorted)
	for i := range ds {
		if ds[i] != resorted[i] {
			t.Fatalf("RunAll output not canonically sorted at index %d:\n  got  %v\n  want %v", i, ds[i], resorted[i])
		}
	}
}

// TestRegistryComplete pins the registry, in report order, so adding or
// folding a rule forces the author to update docs, fixtures, and this suite
// together.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"layering", "determinism", "maporder", "exhaustive", "hotalloc",
		"paired",
	}
	var got []string
	for _, a := range Analyzers() {
		got = append(got, a.Name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("Analyzers() is %v, want %v", got, want)
	}
}

// TestRuleSummaries checks the -rules listing is sourced from the same
// strings as the registry, so the two cannot drift.
func TestRuleSummaries(t *testing.T) {
	sums := RuleSummaries()
	as := Analyzers()
	if len(sums) != len(as) {
		t.Fatalf("RuleSummaries has %d lines, registry has %d analyzers", len(sums), len(as))
	}
	for i, a := range as {
		if !strings.Contains(sums[i], a.Name) {
			t.Errorf("summary %d does not name rule %q: %q", i, a.Name, sums[i])
		}
		if !strings.Contains(sums[i], a.Doc) {
			t.Errorf("summary %d does not carry the registry doc for %q: %q", i, a.Name, sums[i])
		}
	}
}
