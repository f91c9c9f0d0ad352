package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// MapOrderAnalyzer flags `range` over a map whose body does anything
// order-sensitive — sends, posts, schedules, appends, or calls into other
// code — unless the keys are sorted first (the collect-keys-then-sort idiom
// is recognized, as is pure commutative accumulation).
func MapOrderAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "maporder",
		Doc:  "no order-sensitive work inside an unsorted map iteration",
		Explain: `docs/ARCHITECTURE.md, invariant 1: a run is a pure function of its
Config. Go randomizes map iteration order on purpose, so a loop over a map
that posts descriptors, schedules events, appends to an ordered slice or
calls into any other layer produces a different event interleaving — and
therefore different virtual timestamps and figures — on every execution,
even with identical Configs. Purely commutative bodies (counting, summing,
writing into another map) are safe and allowed. The fix is the sorted-keys
idiom: collect the keys into a slice, sort it, then range over the slice;
the analyzer recognizes both halves of that idiom.

Packages listed in policy MapOrderStrict are held to a stricter bar: every
map iteration there must be the sorted-keys idiom, commutative or not.
Those are the emission packages whose output is compared byte-for-byte, so
an "order-insensitive" loop is one edit away from leaking map order into a
golden file. Packages excused from determinism are outside the simulated
world and skipped; single functions are excused under
Policy.Exceptions["maporder"].`,
		Subject: subjFunc,
		Run:     runMapOrder,
	}
}

// mapOrderPureCalls are builtins with no observable ordering effect.
var mapOrderPureCalls = map[string]bool{
	"len": true, "cap": true, "min": true, "max": true,
	"delete": true, "make": true, "new": true,
}

func runMapOrder(m *Module, p *Policy) []Diagnostic {
	var ds []Diagnostic
	m.Interproc().eachUnit(p, "maporder", func(f *IPFunc, u funcUnit) {
		// The declaration walk covers its literals: the sorted-keys idiom is
		// recognized against the whole enclosing body.
		if u.lit != nil || p.excused("determinism", f.Pkg.Rel) {
			return
		}
		_, strict := p.MapOrderStrict[f.Pkg.Rel]
		ast.Inspect(u.body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !isMapRange(f.Pkg.Info, rs) {
				return true
			}
			if d, bad := checkMapRange(m, f.Pkg, u.decl, rs, u.name, strict); bad {
				ds = append(ds, d)
			}
			return true
		})
	})
	return ds
}

// isMapRange reports whether rs iterates a map.
func isMapRange(info *types.Info, rs *ast.RangeStmt) bool {
	t := info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRange classifies one map-range body. It returns a diagnostic for
// order-sensitive bodies that are neither pure accumulation nor the
// key-collection half of the sorted-keys idiom.
func checkMapRange(m *Module, pkg *Package, fd *ast.FuncDecl, rs *ast.RangeStmt, qual string, strict bool) (Diagnostic, bool) {
	keyObj := rangeKeyObject(pkg.Info, rs)

	var reason string
	var appendTargets []types.Object // distinct slices appended to
	keyOnlyAppends := true

	note := func(n ast.Node, what string) {
		if reason == "" {
			pos := m.Position(n.Pos())
			reason = fmt.Sprintf("%s (line %d)", what, pos.Line)
		}
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.SendStmt:
			note(node, "sends on a channel")
		case *ast.GoStmt:
			note(node, "spawns a goroutine")
		case *ast.FuncLit:
			return false // deferred work; analyzed where it is called
		case *ast.CallExpr:
			fun := ast.Unparen(node.Fun)
			if id, ok := fun.(*ast.Ident); ok {
				if mapOrderPureCalls[id.Name] {
					return true
				}
				if id.Name == "append" {
					tgt, keyOnly := classifyAppend(pkg.Info, node, keyObj)
					if tgt != nil {
						appendTargets = appendDistinct(appendTargets, tgt)
					}
					if !keyOnly {
						keyOnlyAppends = false
						note(node, "appends a non-key value to a slice (ordered output)")
					}
					return true
				}
			}
			if isConversion(pkg.Info, node) {
				return true
			}
			note(node, fmt.Sprintf("calls %s", callLabel(node)))
		}
		return true
	})

	// Pure commutative body: nothing ordered touched. Accepted everywhere
	// except strict packages, where only the sorted-keys idiom passes.
	if reason == "" && len(appendTargets) == 0 {
		if !strict {
			return Diagnostic{}, false
		}
		return Diagnostic{
			Pos:  m.Position(rs.Pos()),
			Rule: "maporder",
			Message: fmt.Sprintf("strict maporder package: iteration over map %s must use the collect-keys-then-sort idiom even with a commutative body (or excuse %s under Policy.Exceptions[\"maporder\"])",
				exprLabel(rs.X), qual),
		}, true
	}

	// Key-collection idiom: the only ordered effect is appending the range
	// key to one slice that is sorted before further use.
	if reason == "" && keyOnlyAppends && len(appendTargets) == 1 {
		if sortedAfter(pkg.Info, fd.Body, rs, appendTargets[0]) {
			return Diagnostic{}, false
		}
		return Diagnostic{
			Pos:  m.Position(rs.Pos()),
			Rule: "maporder",
			Message: fmt.Sprintf("map keys collected into %s but never sorted before use; sort the slice to make iteration order deterministic",
				appendTargets[0].Name()),
		}, true
	}

	if reason == "" { // e.g. the key appended to several slices
		reason = "appends to a slice (ordered output)"
	}
	return Diagnostic{
		Pos:  m.Position(rs.Pos()),
		Rule: "maporder",
		Message: fmt.Sprintf("iteration over map %s has an order-sensitive body: %s; sort the keys first (or excuse %s under Policy.Exceptions[\"maporder\"])",
			exprLabel(rs.X), reason, qual),
	}, true
}

// rangeKeyObject resolves the object of the range key variable, or nil.
func rangeKeyObject(info *types.Info, rs *ast.RangeStmt) types.Object {
	id, ok := rs.Key.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// classifyAppend inspects `s = append(s, args...)`: it returns the object
// of the target slice (nil if unresolvable) and whether every appended
// value is exactly the range key variable.
func classifyAppend(info *types.Info, call *ast.CallExpr, keyObj types.Object) (types.Object, bool) {
	if len(call.Args) == 0 {
		return nil, false
	}
	var tgt types.Object
	if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
		tgt = info.Uses[id]
		if tgt == nil {
			tgt = info.Defs[id]
		}
	}
	keyOnly := keyObj != nil
	for _, arg := range call.Args[1:] {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok || info.Uses[id] != keyObj {
			keyOnly = false
		}
	}
	return tgt, keyOnly
}

// appendDistinct adds obj to objs if not present.
func appendDistinct(objs []types.Object, obj types.Object) []types.Object {
	for _, o := range objs {
		if o == obj {
			return objs
		}
	}
	return append(objs, obj)
}

// sortedAfter reports whether, somewhere after rs in the enclosing function
// body, the slice obj is passed to a sort.* / slices.Sort* call.
func sortedAfter(info *types.Info, funcBody *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || found {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		callee := info.Uses[sel.Sel]
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		switch callee.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			sorted := false
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && info.Uses[id] == obj {
					sorted = true
				}
				return !sorted
			})
			if sorted {
				found = true
				break
			}
		}
		return true
	})
	return found
}

// isConversion reports whether the call expression is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// callLabel renders a short name for the called function.
func callLabel(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "a function value"
}

// exprLabel renders a short source-ish label for an expression.
func exprLabel(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprLabel(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprLabel(x.X) + "[...]"
	case *ast.CallExpr:
		return callLabel(x) + "()"
	}
	return "expression"
}
