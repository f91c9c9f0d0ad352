package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// MapOrderAnalyzer flags every walk over a map in the simulated world: a
// `range` over a map, and a maps.Keys/Values/All iterator that is not handed
// straight to slices.Sorted, SortedFunc or SortedStableFunc. The one ordered
// idiom is `for _, k := range slices.Sorted(maps.Keys(m))`.
func MapOrderAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "maporder",
		Doc:  "no walk over a map except through slices.Sorted(maps.Keys(m))",
		Explain: `docs/ARCHITECTURE.md, invariant 1: a run is a pure function of its
Config. Go randomizes map iteration order on purpose, so a loop over a map
that posts descriptors, schedules events, appends to an ordered slice or
renders a report produces different interleavings, timestamps or bytes on
every execution, even with identical Configs. A body that looks commutative
today is one edit away from leaking that order into a golden file, so the
rule does not classify bodies: in every package held to determinism, maps
are lookup-only. Any range over a map is flagged, and so is any maps.Keys,
maps.Values or maps.All iterator that is not handed straight to
slices.Sorted, slices.SortedFunc or slices.SortedStableFunc (that covers
ranging over the iterator and slices.Collect of it). The one ordered idiom
is:

    for _, k := range slices.Sorted(maps.Keys(m)) { ... }

Packages excused from determinism are outside the simulated world and
skipped; single functions are excused under Policy.Exceptions["maporder"].`,
		Subject: subjFunc,
		Run:     runMapOrder,
	}
}

func runMapOrder(m *Module, p *Policy) []Diagnostic {
	var ds []Diagnostic
	m.Interproc().eachUnit(p, "maporder", func(f *IPFunc, u funcUnit) {
		// The declaration walk covers its literals.
		if u.lit != nil || p.excused("determinism", f.Pkg.Rel) {
			return
		}
		sorted := map[ast.Expr]bool{} // iterators handed straight to a sort
		flag := func(n ast.Node, what string) {
			ds = append(ds, Diagnostic{
				Pos:  m.Position(n.Pos()),
				Rule: "maporder",
				Message: fmt.Sprintf("%s: Go randomizes map order; walk slices.Sorted(maps.Keys(m)) instead (or excuse %s under Policy.Exceptions[\"maporder\"])",
					what, u.name),
			})
		}
		ast.Inspect(u.body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if t := f.Pkg.Info.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						flag(n, "range over a map")
					}
				}
			case *ast.CallExpr:
				switch name := calleeName(m, f.Pkg, n); name {
				case "slices.Sorted", "slices.SortedFunc", "slices.SortedStableFunc":
					sorted[ast.Unparen(n.Args[0])] = true
				case "maps.Keys", "maps.Values", "maps.All":
					if !sorted[n] {
						flag(n, name+" not handed straight to slices.Sorted")
					}
				}
			}
			return true
		})
	})
	return ds
}
