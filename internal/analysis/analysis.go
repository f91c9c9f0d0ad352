// Package analysis is the viampi-vet static-analysis suite: machine-checked
// enforcement of the two invariants docs/ARCHITECTURE.md rests on —
// strictly-downward package layering, and total determinism of virtual time
// (a run is a pure function of its Config).
//
// One analyzer ships per invariant (the Analyzers registry is the list;
// `viampi-vet -list` prints it). Three are syntactic: layering checks the
// import DAG, determinism bans wall-clock/global-rand/goroutines/locks in
// simulated code, and maporder flags every walk over a Go map.
// One walks the typed syntax once: exhaustive (switches over closed constant
// sets handle every member, and for the wire kinds the senders and the
// dispatcher's arms agree in both directions). One path rule, paired, runs on
// a per-body dataflow harness (flow.go: the CFG of cfg.go built once per body
// and a may-analysis over it) and the whole-program call graph of
// callgraph.go: every policy-declared acquire — pinned-memory registration,
// VI slots, bus subscriptions, capture writers — is released on every path,
// once, with escape-to-field and ownership-transfer summaries, and no send
// rides a closed or evicted channel without an interposed rebind through the
// reconnect path. hotalloc walks the same call graph: every body reachable
// from the policy's hot roots stays allocation-free. No rule models the
// connection protocol, the wake owed to a parked waiter, the CPU cost a
// transmit must pay or the threaded code's three mutexes (none nests; each
// is a Lock, straight-line code and an Unlock): those are checked on the
// code that runs, by the simulated worlds of internal/via, internal/core and
// internal/mpi, by the byte-pinned goldens, and by the tests that hang or
// fail without an Unlock.
// Legitimate exceptions live in one table, Policy.Exceptions, so they are
// declared in code review rather than scattered as comments — and the
// stale-policy sweep (stale.go) fails the build when an exception no longer
// matches any code.
//
// The suite is built only on the standard library (go/ast, go/parser,
// go/token, go/types); it adds no dependency to the tree it guards. It runs
// in two ways: `go test ./internal/analysis/...` (selfcheck_test.go analyses
// the repository itself, so tier-1 CI fails on any new violation) and the
// cmd/viampi-vet driver for interactive and -json use.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one rule violation at one source position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string // analyzer name
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one invariant checker.
type Analyzer struct {
	Name string
	Doc  string // one-line summary
	// Explain states why the rule exists, citing the ARCHITECTURE.md
	// invariant it guards (the `viampi-vet -explain` text).
	Explain string
	// Subject is the kind of thing a Policy.Exceptions entry for this rule
	// names (one of the subj* kinds); empty when the rule takes none.
	Subject string
	Run     func(m *Module, p *Policy) []Diagnostic
}

// The kinds of module entity a policy entry can name: the values of
// Analyzer.Subject and of the Policy struct's `subject` tags.
const (
	subjFunc  = "function"
	subjPkg   = "package"
	subjConst = "constant"
	subjType  = "type"
	subjField = "struct field"
)

// Analyzers is the registry, in report order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LayeringAnalyzer(),
		DeterminismAnalyzer(),
		MapOrderAnalyzer(),
		ExhaustiveAnalyzer(),
		HotAllocAnalyzer(),
		PairedAnalyzer(),
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAll executes every analyzer against the module and returns all
// diagnostics sorted by file, line and rule.
func RunAll(m *Module, p *Policy) []Diagnostic {
	var ds []Diagnostic
	for _, a := range Analyzers() {
		ds = append(ds, a.Run(m, p)...)
	}
	SortDiagnostics(ds)
	return ds
}

// SortDiagnostics orders diagnostics by position then rule, so output is
// stable across runs and map-iteration order never leaks into reports.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// enclosingFuncName returns the policy-qualified name ("rel/path.Func" or
// "rel/path.(Type).Method") of the function declaration containing pos, or
// "" when pos is at file scope.
func enclosingFuncName(pkg *Package, file *ast.File, pos token.Pos) string {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || pos < fd.Pos() || pos > fd.End() {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) > 0 {
			name = "(" + typeBaseName(fd.Recv.List[0].Type) + ")." + name
		}
		return pkg.Rel + "." + name
	}
	return ""
}

// typeBaseName extracts the bare type name from a receiver expression.
func typeBaseName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.StarExpr:
		return typeBaseName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver
		return typeBaseName(t.X)
	case *ast.IndexListExpr:
		return typeBaseName(t.X)
	}
	return "?"
}

// calleeName returns the policy-qualified name of the function a call
// invokes, or "" for builtins, conversions and indirect calls.
func calleeName(m *Module, pkg *Package, call *ast.CallExpr) string {
	obj := calleeObject(pkg.Info, call)
	if obj == nil {
		return ""
	}
	return relQualified(m.Path, objectQualifiedName(obj))
}

// calleeObject resolves the object a call expression invokes, or nil for
// builtins, conversions and indirect calls.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// objectQualifiedName renders a function object as "pkgpath.Name" or
// "pkgpath.(Recv).Name" for policy lookups; "" for objects without a
// package (builtins).
func objectQualifiedName(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	name := "?"
	if named, ok := recv.(*types.Named); ok {
		name = named.Obj().Name()
	}
	return fn.Pkg().Path() + ".(" + name + ")." + fn.Name()
}

// relQualified converts a full-path qualified name to the module-relative
// form the policy uses ("viampi/internal/via.(Port).ChargeHost" →
// "internal/via.(Port).ChargeHost").
func relQualified(modPath, qualified string) string {
	if rest, ok := strings.CutPrefix(qualified, modPath+"/"); ok {
		return rest
	}
	return qualified
}
