package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The repository module is loaded once per test process: type-checking the
// standard library from source is the dominant cost and every selfcheck
// test wants the same view.
var (
	repoOnce sync.Once
	repoMod  *Module
	repoErr  error
)

func loadRepo(t *testing.T) *Module {
	t.Helper()
	repoOnce.Do(func() {
		repoMod, repoErr = LoadModule(filepath.Join("..", ".."))
	})
	if repoErr != nil {
		t.Fatalf("loading repository module: %v", repoErr)
	}
	return repoMod
}

// TestSelfCheck is the tier-1 guard: every analyzer runs against this
// repository and must report nothing. A new upward import, wall-clock
// read, naked goroutine, unsorted order-sensitive map walk, or uncharged
// fabric call anywhere in the tree fails `go test ./...` with a file:line
// diagnostic.
func TestSelfCheck(t *testing.T) {
	m := loadRepo(t)
	ds := RunAll(m, DefaultPolicy())
	for _, d := range ds {
		t.Errorf("%v", d)
	}
	if len(ds) > 0 {
		t.Logf("fix the code, or — for a reviewed exception — declare it in internal/analysis/policy.go")
	}
}

// TestPolicyNotStale fails the build when a policy entry matches nothing in
// the module: an allowlist that outlives the function it excused is a
// silent hole in the invariant, so stale entries are errors here (the
// viampi-vet driver warns about the same list on stderr).
func TestPolicyNotStale(t *testing.T) {
	m := loadRepo(t)
	for _, w := range StalePolicy(m, DefaultPolicy()) {
		t.Errorf("%s", w)
	}
}

// TestHotSetGolden pins the set of bodies hotalloc derives from the policy's
// roots against testdata/hotset.golden, so a change that makes a body hot — or
// cuts one off from every root — is a one-line diff in review. Regenerate with
// `make golden` (or -update).
func TestHotSetGolden(t *testing.T) {
	m := loadRepo(t)
	hot := hotSet(m, DefaultPolicy())
	got := strings.Join(slices.Sorted(maps.Keys(hot)), "\n") + "\n"
	path := filepath.Join("testdata", "hotset.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		committed := map[string]bool{}
		for _, name := range strings.Fields(string(want)) {
			committed[name] = true
			if _, ok := hot[name]; !ok {
				t.Errorf("no longer hot: %s", name)
			}
		}
		for _, name := range slices.Sorted(maps.Keys(hot)) {
			if !committed[name] {
				t.Errorf("newly hot: %s (%s)", name, hotChain(hot, name))
			}
		}
		t.Error("the derived hot set drifted from testdata/hotset.golden; review the change, then regenerate with -update")
	}

	// The derivation replaced a hand-kept table (Policy.HotPaths, 74 bodies
	// when it was deleted). Every body it named that still exists is derived,
	// or is named here with the reason it is not.
	notDerived := map[string]string{
		"internal/mpi.(Rank).growPool": "cold by the grow* convention: it runs once per connection and per dynamic doubling, and what it calls (Register, PostRecvPool, obsGauge) is hot through other callers",
	}
	for _, name := range strings.Fields(handListedHotPaths) {
		_, derived := hot[name]
		if m.Interproc().Funcs[name] != nil && !derived && notDerived[name] == "" {
			t.Errorf("%s was hand-listed as hot and is reached from no root", name)
		}
	}
}

// handListedHotPaths is the key set of Policy.HotPaths as last committed.
const handListedHotPaths = `
internal/obs.(Bus).Emit internal/obs.(Phases).Add internal/obs/capture.(Writer).Consume
internal/obs/capture.(Ring).Consume internal/mpi.(Rank).progress internal/mpi.(Rank).progressStep
internal/mpi.(Rank).waitProgress internal/mpi.(Rank).blockedPhase internal/mpi.(Rank).obsSend
internal/mpi.(Rank).obsRecv internal/mpi.(Rank).obsGauge internal/mpi.(Rank).obsUnexpected
internal/via.(Port).notifyActivity internal/via.(Port).ChargeHost internal/via.(Port).FlushDebt
internal/via.(VI).SendDone internal/via.(VI).recvDone internal/via.(CQ).Done
internal/mpi.(Rank).adoptDisconnects internal/mpi.(Rank).reapSends internal/mpi.(Rank).flowPass
internal/via.(Port).ChargeIdlePolls internal/core.(base).progressHandshakes internal/core.(base).promoteConnected
internal/mpi.(Rank).post internal/mpi.(Rank).emit internal/mpi.(Rank).newPkt
internal/mpi.(Rank).wire internal/mpi.(Rank).emitted internal/mpi.encodeInto
internal/via.(VI).PostSend internal/via.(VI).queueSend internal/via.(VI).PostRecv
internal/via.(VI).PostRecvPool internal/via.(VI).transmit internal/via.(VI).handleData
internal/via.(Port).lendLanding internal/via.(Port).ReturnLanding internal/via.(txDone).Fire
internal/via.(CQ).push internal/via.(Network).sendFrame internal/via.(Network).release
internal/via.(wireMsg).Fire internal/via.(Port).handleFrame internal/fabric.(Cluster).Send
internal/fabric.(Cluster).takeFlight internal/fabric.(flight).Fire internal/mpi.(Rank).newChanState
internal/mpi.(Rank).growPool internal/simnet.Carve internal/mpi.(Rank).teardownChannel
internal/mpi.(Rank).handleDisconnect internal/via.(VI).Close internal/via.(Port).keepQueues
internal/via.(Port).establish internal/via.(VI).establishAfter
internal/via.(Port).NotifyAfter internal/via.(portNotify).Fire internal/core.(base).takeChannel
internal/core.(base).ReleaseChannel internal/simnet.(Sim).loop internal/simnet.(Sim).schedule
internal/simnet.(Sim).AtAction internal/simnet.(Sim).heapPush internal/simnet.(Sim).heapPop
internal/simnet.(eventRing).push internal/simnet.(eventRing).pop internal/simnet.(Proc).park
internal/simnet.(Proc).Sleep internal/simnet.(Proc).Compute internal/simnet.(Proc).ParkTimeout
internal/simnet.(Proc).WakeAfter internal/sweep.(tracker).advance`

// TestSeededStaleEntryIsCaught plants entries pointing at code that does
// not exist, at least one per subject kind — a renamed excused function, a
// deleted package (excused, and holding a layer), a removed event type, an
// excused sentinel constant that is gone, a hot root and a hotalloc exception
// whose functions are gone, the leftover tables of two deleted rules — and
// requires StalePolicy to name each one.
func TestSeededStaleEntryIsCaught(t *testing.T) {
	m := loadRepo(t)
	p := DefaultPolicy()
	p.Exceptions["maporder"] = map[string]string{"internal/via.(Port).zzRenamedAway": "seeded: function no longer exists"}
	p.Exceptions["determinism"]["internal/zzdeleted"] = "seeded: package no longer exists"
	p.Exceptions["locks"] = map[string]string{"internal/tcpvia.(EventLog).mu -> internal/sweep.(tracker).mu": "seeded: the rule no longer exists"}
	p.Exceptions["costcharge"] = map[string]string{"internal/via.(Port).SendOob": "seeded: the rule no longer exists"}
	p.EventEdges["internal/simnet.zzGoneAction"] = "seeded: a type that no longer exists"
	p.Exceptions["exhaustive"]["internal/via.zzKindGone"] = "seeded: a sentinel constant that no longer exists"
	p.Layers["internal/zzdeleted"] = 3 // seeded: a deleted package keeps its layer
	p.HotRoots["internal/mpi.(Comm).zzSend"] = "seeded: a root that no longer exists"
	p.Exceptions["hotalloc"]["internal/mpi.(Rank).zzHandlePacket"] = "seeded: an excused body that no longer exists"

	got := StalePolicy(m, p)
	for _, wantSub := range []string{
		`policy.Exceptions["maporder"]["internal/via.(Port).zzRenamedAway"]`,
		`policy.Exceptions["determinism"]["internal/zzdeleted"]`,
		`policy.Exceptions["locks"] names no rule`,
		`policy.Exceptions["costcharge"] names no rule`,
		`policy.EventEdges["internal/simnet.zzGoneAction"] matches no type`,
		`policy.Exceptions["exhaustive"]["internal/via.zzKindGone"] matches no constant`,
		`policy.Layers["internal/zzdeleted"]`,
		`policy.HotRoots["internal/mpi.(Comm).zzSend"]`,
		`policy.Exceptions["hotalloc"]["internal/mpi.(Rank).zzHandlePacket"]`,
	} {
		found := false
		for _, w := range got {
			if strings.Contains(w, wantSub) {
				found = true
			}
		}
		if !found {
			t.Errorf("seeded stale entry not reported: want a message containing %s\ngot: %v", wantSub, got)
		}
	}
	if len(got) != 9 {
		t.Errorf("stale count: got %d, want exactly the 9 seeded entries: %v", len(got), got)
	}
}

// A policy field the stale sweep would pass over panics instead: a table with
// no subject tag, and a subject tag on a field that is no table.
func TestWalkSubjectsRefusesUncheckedFields(t *testing.T) {
	for _, c := range []struct {
		name   string
		policy any
	}{
		{"an untagged table", struct{ T map[string]bool }{}},
		{"a tagged string", struct {
			S string `subject:"function"`
		}{}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("walkSubjects passed over %s", c.name)
				}
			}()
			walkSubjects(reflect.ValueOf(c.policy), func(string, string, string) {})
		}()
	}
}

// TestSelfCheckSeesTheWholeModule guards against the loader silently
// skipping the tree: the packages the layering contract names must all be
// present and type-checked.
func TestSelfCheckSeesTheWholeModule(t *testing.T) {
	m := loadRepo(t)
	for _, rel := range []string{
		"internal/simnet", "internal/fabric", "internal/via", "internal/core",
		"internal/mpi", "internal/apps", "internal/npb", "internal/bench",
		"internal/obs", "internal/obs/capture", "internal/tcpvia", "internal/analysis",
	} {
		pkg := m.Lookup(m.Path + "/" + rel)
		if pkg == nil {
			t.Fatalf("package %s not loaded", rel)
		}
		if pkg.Types == nil {
			t.Errorf("package %s not type-checked", rel)
		}
		for _, err := range pkg.TypeErrs {
			t.Errorf("package %s: type error: %v", rel, err)
		}
	}
}

// TestSeededViolationIsCaught is the acceptance check for the suite: a
// deliberate wall-clock read, naked goroutine and map walk planted (in
// memory) in internal/core must produce file:line determinism and maporder
// diagnostics. The walk's body is commutative, so only a rule that sees the
// simulated world and flags every map walk in it catches the line. The tree
// on disk is never touched.
func TestSeededViolationIsCaught(t *testing.T) {
	m := loadRepo(t)
	const src = `package core

import "time"

func zzSeededViolation(m map[int]int64) (t int64) {
	go func() {}()
	t = time.Now().UnixNano()
	for _, v := range m {
		t += v
	}
	return t
}
`
	name := filepath.Join(m.Root, "internal", "core", "zz_seeded_violation.go")
	file, err := parser.ParseFile(m.Fset, name, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	seeded := &Package{
		Path:  m.Path + "/internal/core__seeded",
		Rel:   "internal/core",
		Dir:   filepath.Join(m.Root, "internal", "core"),
		Name:  "core",
		Files: []*ast.File{file},
		Info: &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		},
	}
	std := importer.ForCompiler(m.Fset, "source", nil)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if dep := m.Lookup(path); dep != nil {
			return dep.Types, nil
		}
		return std.Import(path)
	})}
	if seeded.Types, err = conf.Check(seeded.Path, m.Fset, seeded.Files, seeded.Info); err != nil {
		t.Fatalf("type-checking seeded file: %v", err)
	}

	withSeeded := &Module{Path: m.Path, Root: m.Root, Fset: m.Fset,
		Pkgs:   append(append([]*Package{}, m.Pkgs...), seeded),
		byPath: map[string]*Package{seeded.Path: seeded},
	}
	ds := DeterminismAnalyzer().Run(withSeeded, DefaultPolicy())
	ds = append(ds, MapOrderAnalyzer().Run(withSeeded, DefaultPolicy())...)

	var wallClock, goroutine, mapWalk bool
	for _, d := range ds {
		if !strings.HasSuffix(d.Pos.Filename, "zz_seeded_violation.go") {
			t.Errorf("unexpected diagnostic outside the seeded file: %v", d)
			continue
		}
		if d.Pos.Line == 7 && strings.Contains(d.Message, "time.Now") {
			wallClock = true
		}
		if d.Pos.Line == 6 && strings.Contains(d.Message, "go statement") {
			goroutine = true
		}
		if d.Pos.Line == 8 && d.Rule == "maporder" {
			mapWalk = true
		}
	}
	if !wallClock || !goroutine || !mapWalk {
		t.Fatalf("seeded violations not all caught (wallClock=%v goroutine=%v mapWalk=%v): %v", wallClock, goroutine, mapWalk, ds)
	}
}
