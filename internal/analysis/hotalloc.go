package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// HotAllocAnalyzer enforces the zero-allocation discipline on the hot paths:
// the nil-bus obs emit path, the progress-poll loop, the message and
// connection paths, the scheduler. The policy names only their roots; the
// rule checks every body the call graph reaches from one (hotSet). It flags
// the allocation idioms Go cannot keep off the heap — address-taken composite
// literals, slice/map literals, make/new, closures (but for one handed
// straight to a function that only calls it), non-constant string
// concatenation, and implicit interface boxing of non-pointer values at call
// arguments. The walk stops at cold calls (isCold) and ignores what their
// arguments build: a path that fails, or grows a free list, may allocate.
func HotAllocAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "hotalloc",
		Doc:  "every body reachable from a hot root must not allocate",
		Explain: `docs/ARCHITECTURE.md, "Observability" and "Enforced invariants": the obs
bus is wired into every layer on the premise that instrumentation can never
alter what it observes — the disabled (nil-bus) emit path is pinned at zero
allocations by benchmark so leaving tracing off costs nothing. The progress
engine makes the same promise for a different reason: MVICH's
MPID_DeviceCheck runs on every MPI call and every blocking wait, so an
allocation there scales with poll count, not message count, and its cost
would be charged to whichever rank happens to poll — exactly the kind of
hidden, load-dependent cost the paper's measurements must not contain. The
message and connection paths keep it by recycling every object they use.
Nobody lists the bodies that carry the promise: Policy.HotRoots names entry
points (Comm.Send, Comm.Recv, Rank.progress, callbacks only ever handed
over as function values), every Fire the scheduler dispatches through a
Policy.EventEdges interface is a root unlisted, and the hot set is what the
call graph reaches from those (testdata/hotset.golden is the derived list).
In each such body this rule flags the constructs that defeat escape
analysis or allocate by definition: &T{...}, slice/map literals, make/new,
closures, non-constant string concatenation, and non-pointer values passed
to interface parameters (boxing). One closure is not an allocation: a
literal passed straight to a module function that does nothing with that
parameter but call it (the completion predicate Wait hands waitProgress)
stays on the caller's stack, and its body is checked as part of the caller.
The walk does not enter cold callees, nor look at what their arguments
build: Policy.ColdCalls (failure paths, the Init-time reserves), fmt.Errorf,
and the free-list growers, which the tree names grow*. A body that allocates
by design is small and excused whole (profiler.enter, tracing's span closure)
with its reason, under Policy.Exceptions["hotalloc"]; the walk still passes
through.`,
		Subject: subjFunc,
		Run:     runHotAlloc,
	}
}

func runHotAlloc(m *Module, p *Policy) []Diagnostic {
	var ds []Diagnostic
	ip := m.Interproc()
	hot := hotSet(m, p)
	for _, name := range slices.Sorted(maps.Keys(hot)) {
		if !p.excused("hotalloc", name) {
			f := ip.Funcs[name]
			ds = append(ds, checkHotAlloc(m, p, f.Pkg, f.Decl, name, hotChain(hot, name))...)
		}
	}
	return ds
}

// hotSet derives the bodies held to the discipline: every function the call
// graph reaches from a Policy.HotRoots entry or from an event the scheduler
// fires (the targets of any call through a Policy.EventEdges interface),
// cold callees excluded. The value is the caller the walk came from, "" for
// a root.
func hotSet(m *Module, p *Policy) map[string]string {
	ip := m.Interproc()
	from := map[string]string{}
	var work []string
	reach := func(key, caller string) {
		if _, seen := from[key]; !seen && ip.Funcs[key] != nil {
			from[key] = caller
			work = append(work, key)
		}
	}
	for _, root := range slices.Sorted(maps.Keys(p.HotRoots)) {
		reach(root, "") // a dangling root is the stale sweep's report
	}
	for _, key := range ip.Keys {
		for _, site := range ip.Calls(key) {
			if isEventEdge(m, p, ip.Funcs[key].Pkg, site.Call) {
				for _, target := range site.Callees {
					reach(target, "")
				}
			}
		}
	}
	for ; len(work) > 0; work = work[1:] {
		caller, pkg := work[0], ip.Funcs[work[0]].Pkg
		var cold *ast.CallExpr // the last cold call seen: its arguments are as cold as it is
		for _, site := range ip.Calls(caller) {
			switch {
			case cold != nil && cold.Pos() <= site.Call.Pos() && site.Call.Pos() < cold.End():
			case isCold(p, calleeName(m, pkg, site.Call)):
				cold = site.Call
			default:
				for _, callee := range site.Callees {
					reach(callee, caller)
				}
			}
		}
	}
	return from
}

// isCold reports whether the hot walk stops at a call to key: a
// Policy.ColdCalls entry, a free-list grower (the tree names them grow*), or
// fmt.Errorf — a path that builds an error is a failure path.
func isCold(p *Policy, key string) bool {
	return p.ColdCalls[key] || key == "fmt.Errorf" || strings.HasPrefix(key[strings.LastIndex(key, ".")+1:], "grow")
}

// hotChain renders how the walk reached name, root first.
func hotChain(hot map[string]string, name string) string {
	chain := name
	for at := hot[name]; at != ""; at = hot[at] {
		chain = at + " → " + chain
	}
	return chain
}

func checkHotAlloc(m *Module, p *Policy, pkg *Package, fd *ast.FuncDecl, name, chain string) []Diagnostic {
	var ds []Diagnostic
	flag := func(pos token.Pos, what string) {
		ds = append(ds, Diagnostic{
			Pos:  m.Position(pos),
			Rule: "hotalloc",
			Message: fmt.Sprintf("%s is on a zero-allocation hot path (%s): %s — hoist it out of the hot path or move the work to a cold grow* helper",
				name, chain, what),
		})
	}
	var concatEnd token.Pos // suppress nested reports inside a flagged a+b+c chain
	onStack := map[*ast.FuncLit]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if !onStack[n] {
				flag(n.Pos(), "closure literal allocates (captures escape)")
				return false // the literal body is a different activation
			}

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
			if isCold(p, calleeName(m, pkg, n)) {
				return false // what a cold call's arguments build is built on the cold path
			}
			hotAllocCheckCall(m, pkg, n, flag)
			for i, arg := range n.Args {
				if lit, ok := arg.(*ast.FuncLit); ok && onlyCalls(m.Interproc(), name, n, i) {
					onStack[lit] = true // runs in this activation: its body is this body
				}
			}

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
func hotAllocCheckCall(m *Module, pkg *Package, call *ast.CallExpr, flag func(token.Pos, string)) {
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

// onlyCalls reports whether every module function the call may invoke does
// nothing with its i-th parameter but call it — never stores, returns,
// forwards or captures it. A literal passed there does not escape, so the
// compiler keeps it on the caller's stack.
func onlyCalls(ip *Interproc, caller string, call *ast.CallExpr, i int) bool {
	callees := resolveSiteCallees(ip, caller, call)
	for _, key := range callees {
		f := ip.Funcs[key]
		sig := f.Pkg.Info.Defs[f.Decl.Name].Type().(*types.Signature)
		if i >= sig.Params().Len() || sig.Variadic() && i == sig.Params().Len()-1 {
			return false
		}
		called := map[*ast.Ident]bool{} // identifiers in call position, outside any literal
		inspectSkipLits(f.Decl.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok {
					called[id] = true
				}
			}
			return true
		})
		if containsNode(f.Decl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			return ok && f.Pkg.Info.Uses[id] == sig.Params().At(i) && !called[id]
		}) {
			return false
		}
	}
	return len(callees) > 0
}

// inspectSkipLits walks n in preorder like ast.Inspect but does not descend
// into function literals.
func inspectSkipLits(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

// containsNode reports whether pred holds for any node under root, literals
// included.
func containsNode(root ast.Node, pred func(ast.Node) bool) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		found = found || n != nil && pred(n)
		return !found
	})
	return found
}
