package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotAllocAnalyzer enforces the zero-allocation discipline on
// policy-annotated hot paths: the nil-bus obs emit path, the progress-poll
// loop and the message path. It flags the allocation idioms Go cannot keep
// off the heap — address-taken composite literals, slice/map literals,
// make/new, closures, non-constant string concatenation, and implicit
// interface boxing of non-pointer values at call arguments. Failure-path
// callees in Policy.ColdCalls (Sim.Failf) are excused from the boxing check:
// a path that aborts the run may allocate.
func HotAllocAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "hotalloc",
		Doc:  "policy-annotated hot paths must not allocate",
		Explain: `docs/ARCHITECTURE.md, "Observability" and "Enforced invariants": the obs
bus is wired into every layer on the premise that instrumentation can never
alter what it observes — the disabled (nil-bus) emit path is pinned at zero
allocations by benchmark so leaving tracing off costs nothing. The progress
engine makes the same promise for a different reason: MVICH's
MPID_DeviceCheck runs on every MPI call and every blocking wait, so an
allocation there scales with poll count, not message count, and its cost
(and eventual GC pauses in the real-code twin) would be charged to whichever
rank happens to poll — exactly the kind of hidden, load-dependent cost the
paper's measurements must not contain. Functions in Policy.HotPaths carry
that promise in code review; this rule keeps it honest by flagging the
constructs that defeat escape analysis or allocate by definition: &T{...},
slice/map literals, make/new, closures, non-constant string concatenation,
and non-pointer values passed to interface parameters (boxing). Cold
failure-path callees (Policy.ColdCalls) are exempt from boxing — a path
that kills the run may allocate on its way out.`,
		Run: runHotAlloc,
	}
}

func runHotAlloc(m *Module, p *Policy) []Diagnostic {
	var ds []Diagnostic
	ip := m.Interproc()
	for _, name := range sortedKeys(p.HotPaths) {
		if f := ip.Funcs[name]; f != nil { // a dangling entry is the stale sweep's report
			ds = append(ds, checkHotAlloc(m, p, f.Pkg, f.Decl, name, p.HotPaths[name])...)
		}
	}
	return ds
}

func checkHotAlloc(m *Module, p *Policy, pkg *Package, fd *ast.FuncDecl, name, why string) []Diagnostic {
	var ds []Diagnostic
	flag := func(pos token.Pos, what string) {
		ds = append(ds, Diagnostic{
			Pos:  m.Position(pos),
			Rule: "hotalloc",
			Message: fmt.Sprintf("%s is a zero-allocation hot path (%s): %s — hoist it out of the hot path or move the work to a cold helper",
				name, why, what),
		})
	}
	var concatEnd token.Pos // suppress nested reports inside a flagged a+b+c chain
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			flag(n.Pos(), "closure literal allocates (captures escape)")
			return false // the literal body is a different activation

		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					flag(n.Pos(), "address-of composite literal escapes to the heap")
					return false
				}
			}

		case *ast.CompositeLit:
			t := pkg.Info.TypeOf(n)
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					flag(n.Pos(), "slice/map composite literal allocates")
				}
			}
			// Value struct literals (obs.Event{...}) stay on the stack and
			// are the idiomatic emit payload: not flagged.

		case *ast.CallExpr:
			hotAllocCheckCall(m, p, pkg, n, flag)

		case *ast.BinaryExpr:
			if n.Op != token.ADD || n.Pos() < concatEnd {
				break
			}
			t := pkg.Info.TypeOf(n)
			if t == nil {
				break
			}
			basic, ok := t.Underlying().(*types.Basic)
			if !ok || basic.Info()&types.IsString == 0 {
				break
			}
			if tv, ok := pkg.Info.Types[n]; ok && tv.Value != nil {
				break // folded at compile time
			}
			concatEnd = n.End()
			flag(n.Pos(), "non-constant string concatenation allocates")
		}
		return true
	})
	return ds
}

// hotAllocCheckCall flags make/new and implicit interface boxing at call
// arguments.
func hotAllocCheckCall(m *Module, p *Policy, pkg *Package, call *ast.CallExpr, flag func(token.Pos, string)) {
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make", "new":
				flag(call.Pos(), id.Name+" allocates")
			}
			return // other builtins (append, len, copy, panic) have no boxing
		}
	}
	// Cold callees may box: the call aborts or records a failure.
	if p.ColdCalls[calleeName(m, pkg, call)] {
		return
	}
	sig, ok := pkg.Info.TypeOf(call.Fun).Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // slice passed through whole, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pkg.Info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if basic, ok := at.(*types.Basic); ok && basic.Kind() == types.UntypedNil {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Signature, *types.Map, *types.Chan:
			continue // pointer-shaped: stored in the interface word itself
		}
		flag(arg.Pos(), fmt.Sprintf("passing concrete %s as interface argument boxes (allocates)", at.String()))
	}
}
