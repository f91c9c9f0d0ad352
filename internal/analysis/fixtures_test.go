package analysis

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture loads the fixture module under testdata/src/fixmod.
func loadFixture(t *testing.T) *Module {
	t.Helper()
	m, err := LoadModule(filepath.Join("testdata", "src", "fixmod"))
	if err != nil {
		t.Fatalf("loading fixture module: %v", err)
	}
	return m
}

// TestFixtureDiagnostics runs every analyzer over the fixture module and
// asserts the exact diagnostic set: each rule fires on its bad case at the
// right file:line, and none fires on the good cases.
func TestFixtureDiagnostics(t *testing.T) {
	m := loadFixture(t)
	ds := RunAll(m, FixturePolicy())

	var got []string
	for _, d := range ds {
		rel, err := filepath.Rel(m.Root, d.Pos.Filename)
		if err != nil {
			t.Fatalf("diagnostic outside fixture root: %v", d)
		}
		got = append(got, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), d.Pos.Line, d.Rule))
	}
	want := []string{
		"internal/core/determ.go:7: determinism",  // sync import
		"internal/core/determ.go:15: determinism", // time.Now
		"internal/core/determ.go:20: determinism", // naked goroutine
		"internal/core/determ.go:25: determinism", // global rand.Intn
		"internal/mpi/hotalloc.go:15: hotalloc",   // make on the hot path
		"internal/mpi/hotalloc.go:17: hotalloc",   // escaping composite literal
		"internal/mpi/hotalloc.go:19: hotalloc",   // closure literal
		"internal/mpi/hotalloc.go:21: hotalloc",   // string concatenation
		"internal/mpi/hotalloc.go:23: hotalloc",   // interface boxing
		"internal/mpi/hotalloc.go:30: hotalloc",   // step: hot because progress calls it, named nowhere; growNames, cold by name, is not entered
		"internal/mpi/hotalloc.go:42: hotalloc",   // tick.Fire: an event behind Policy.EventEdges is a root without being listed
		"internal/mpi/maporder.go:12: maporder",   // append of values in map order
		"internal/mpi/maporder.go:21: maporder",   // keys collected, never sorted
		"internal/mpi/maporder.go:40: maporder",   // commutative body: a map walk all the same
		"internal/mpi/maporder.go:50: maporder",   // per-entry call
		"internal/mpi/maporder.go:57: maporder",   // range over maps.Keys: the iterator walks in map order
		"internal/mpi/maporder.go:64: maporder",   // slices.Collect(maps.Keys(m)): collected, never sorted
		"internal/obs/maporder.go:13: maporder",   // commutative body in obs
		"internal/obs/obs.go:17: exhaustive",      // strict String misses EvC despite default
		"internal/tcpvia/tcpvia.go:5: layering",   // restricted leaf imports a layered package
		"internal/via/enum.go:19: exhaustive",     // ViState switch misses ViClosed
		"internal/via/enum.go:71: exhaustive",     // wire-kind switch misses kindConnNack and kindDisc
		"internal/via/paired.go:31: paired",       // leakEarlyReturn: flush path returns still holding h
		"internal/via/paired.go:65: paired",       // discardHandle: result dropped, unreleasable
		"internal/via/paired.go:76: paired",       // doubleRelease: second Deregister of a dead handle
		"internal/via/paired.go:91: paired",       // storeLeak: field (holder).h has no releasing path
		"internal/via/paired.go:125: paired",      // wrapperCallerLeaks: obligation inherited from acquireWrapped
		"internal/via/protocol.go:17: exhaustive", // kindDisc arm is dead: nothing sends it
		"internal/via/protocol.go:38: exhaustive", // kindConnNack sent, no dispatcher arm
		"internal/via/seqcheck.go:29: paired",     // sendAfterClose: post on the VI it just closed
		"internal/via/seqcheck.go:38: paired",     // evictMaybe: closed on the evict branch, sent after the join
		"internal/via/via.go:6: layering",         // via imports mpi (upward)
	}
	if len(got) != len(want) {
		t.Fatalf("diagnostic count: got %d, want %d\ngot:\n  %s", len(got), len(want), strings.Join(got, "\n  "))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d:\n  got  %s\n  want %s", i, got[i], want[i])
		}
	}
}

// TestFixtureMessagesCiteTheFix spot-checks that diagnostics tell the
// builder what to do, not just what is wrong.
func TestFixtureMessagesCiteTheFix(t *testing.T) {
	m := loadFixture(t)
	ds := RunAll(m, FixturePolicy())
	wantSubstrings := [][2]string{
		{"determinism", "pure function of its Config"},
		{"maporder", "slices.Sorted(maps.Keys"},
		{"layering", "standard library or a shared leaf"},
		{"exhaustive", "missing cases"},
		{"hotalloc", "hot path"},
		{"exhaustive", "handler arm"},
		{"paired", `Policy.Exceptions["paired"]`},
		{"paired", "rides a dead endpoint"},
	}
	for _, want := range wantSubstrings {
		seen := false
		for _, d := range ds {
			seen = seen || d.Rule == want[0] && strings.Contains(d.Message, want[1])
		}
		if !seen {
			t.Errorf("no %s diagnostic mentions %q", want[0], want[1])
		}
	}
}

// TestExplainTextsCiteArchitecture verifies every analyzer explains itself
// against the invariant it guards (the -explain mode contract).
func TestExplainTextsCiteArchitecture(t *testing.T) {
	for _, a := range Analyzers() {
		if a.Explain == "" {
			t.Errorf("%s: empty Explain text", a.Name)
		}
		if !strings.Contains(a.Explain, "ARCHITECTURE.md") {
			t.Errorf("%s: Explain does not cite the ARCHITECTURE.md invariant it guards", a.Name)
		}
	}
	if ByName("layering") == nil || ByName("nope") != nil {
		t.Error("ByName lookup broken")
	}
}
