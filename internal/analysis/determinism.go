package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismAnalyzer bans the constructs that smuggle host nondeterminism
// into simulated code: wall-clock reads, the process-global math/rand
// source, goroutines, and locking primitives.
func DeterminismAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "no wall clock, global rand, goroutines or locks in simulation paths",
		Explain: `docs/ARCHITECTURE.md, invariant 1 ("Single-threaded virtual time"):
exactly one goroutine runs at any instant and determinism is total — a run
is a pure function of its Config. Four host-side constructs silently break
that purity: time.Now/Sleep/Since observe or wait on the host clock, whose
values differ every run; the package-level math/rand functions draw from a
process-global source shared with any other code in the binary (only
*rand.Rand generators threaded from a Config seed are reproducible); a
naked 'go' statement creates a second runnable goroutine, so the Go
scheduler — not simnet — decides interleaving; and sync/sync-atomic
primitives both imply real concurrency and introduce scheduling-dependent
blocking. No simulation package is allowed 'go', internal/simnet included
(its processes are coroutines); internal/tcpvia and its drivers talk to real
sockets and are excused wholesale under Policy.Exceptions["determinism"].`,
		Subject: subjPkg,
		Run:     runDeterminism,
	}
}

func runDeterminism(m *Module, p *Policy) []Diagnostic {
	var ds []Diagnostic
	for _, pkg := range m.Pkgs {
		if p.excused("determinism", pkg.Rel) || pkg.Info == nil { // nil Info: test-only directory
			continue
		}
		for _, file := range pkg.Files {
			ds = append(ds, checkDeterminismFile(m, p, pkg, file)...)
		}
	}
	return ds
}

func checkDeterminismFile(m *Module, p *Policy, pkg *Package, file *ast.File) []Diagnostic {
	var ds []Diagnostic
	report := func(n ast.Node, format string, args ...interface{}) {
		ds = append(ds, Diagnostic{
			Pos:     m.Position(n.Pos()),
			Rule:    "determinism",
			Message: fmt.Sprintf(format, args...),
		})
	}

	for _, imp := range file.Imports {
		switch strings.Trim(imp.Path.Value, `"`) {
		case "sync", "sync/atomic":
			report(imp, "package %s imports %s: simulated code is single-threaded by invariant and never locks (thread a value through the scheduler instead)",
				pkg.Rel, strings.Trim(imp.Path.Value, `"`))
		}
	}

	ast.Inspect(file, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.GoStmt:
			report(node, "go statement on a simulation path: a simulation is one thread of control, and a second runnable goroutine lets the Go scheduler decide interleaving (simnet processes are coroutines; hermetic parallel jobs belong in internal/sweep)")
		case *ast.Ident:
			obj := pkg.Info.Uses[node]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "time":
				if isPackageFunc(obj) && p.WallClockBanned[obj.Name()] {
					report(node, "time.%s reads or waits on the host clock; use virtual time (simnet.Proc.Now/Sleep) so the run stays a pure function of its Config", obj.Name())
				}
			case "math/rand", "math/rand/v2":
				if isPackageFunc(obj) && !p.RandConstructors[obj.Name()] {
					report(node, "package-level rand.%s draws from the process-global source; thread a *rand.Rand seeded from the Config instead", obj.Name())
				}
			}
		}
		return true
	})
	return ds
}

// isPackageFunc reports whether obj is a package-level function (as opposed
// to a method, type, or variable).
func isPackageFunc(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}
