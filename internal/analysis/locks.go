package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// locks abstract states (bit indices): whether this mutex may be held, and
// whether a deferred Unlock is armed.
const (
	lkHeld     = 1 << 0
	lkDeferred = 1 << 1
)

// LocksAnalyzer enforces the leaf-lock discipline on the one place viampi
// tolerates a mutex (the tcpvia event-log leaf) and on any other lock the code
// grows: every Lock is paired with an Unlock or defer-Unlock on all CFG
// paths, no Lock while the same mutex may already be held, and — for
// policy-declared leaf locks — no call into a layered simulation package
// while the leaf is held.
func LocksAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "locks",
		Doc:  "every Lock pairs with an Unlock on all paths; leaf locks never held across layered calls",
		Explain: `docs/ARCHITECTURE.md, "Enforced invariants": the simulated world is
single-threaded by construction (the determinism rule bans sync there), so
the only mutexes in the tree live in internal/tcpvia, the real-socket twin
that talks to actual kernel threads. Its event-log mutex is documented as a
*leaf* lock: acquired last, released before calling anything that could
take another lock. That contract is what makes the lock hierarchy trivially
deadlock-free — the moment a leaf-held thread re-enters a layered package
(via, fabric, mpi...), it can reach code that parks, takes node locks, or
calls back into the log, and the hierarchy is gone. This rule checks, per
CFG path: a Lock is always discharged by an Unlock or defer-Unlock before
return (a leaked lock hangs the next reader the way a missed wake hangs a
waiter); a Lock never re-acquires a mutex that may already be held
(self-deadlock); and while a Policy.LeafLocks mutex may be held, no call
resolves into a package with a layer assignment in the DAG.`,
		Subject: subjFunc,
		Run:     runLocks,
	}
}

// lockOp classifies one mutex call site.
type lockOp struct {
	call  *ast.CallExpr
	key   string // textual receiver ("n.mu"): one dataflow domain per key
	field string // qualified field ("internal/tcpvia.(EventLog).mu") or ""
	lock  bool   // Lock/RLock vs Unlock/RUnlock
	read  bool   // RLock/RUnlock (shared: re-acquiring is not self-deadlock)
}

func runLocks(m *Module, p *Policy) []Diagnostic {
	var ds []Diagnostic
	m.Interproc().eachUnit(p, "locks", func(f *IPFunc, u funcUnit) {
		ds = append(ds, checkLocks(m, p, f.Pkg, u)...)
	})
	return ds
}

func checkLocks(m *Module, p *Policy, pkg *Package, u funcUnit) []Diagnostic {
	// Collect the mutex keys this unit touches; no keys, no CFG needed.
	keys := map[string]bool{}
	var order []string
	inspectSkipLits(u.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op := classifyLockOp(m, pkg, call); op != nil && !keys[op.key] {
			keys[op.key] = true
			order = append(order, op.key)
		}
		return true
	})
	if len(order) == 0 {
		return nil
	}

	g := buildCFG(u.body)
	var ds []Diagnostic
	for _, key := range order {
		ds = append(ds, checkLockKey(m, p, pkg, u, g, key)...)
	}
	return ds
}

// checkLockKey runs the held-state dataflow for one mutex key: a fixpoint
// pass to compute block in-states, then one deterministic reporting pass.
func checkLockKey(m *Module, p *Policy, pkg *Package, u funcUnit, g *cfg, key string) []Diagnostic {
	transfer := func(report func(Diagnostic)) func(blk *cfgBlock, in uint64) uint64 {
		return func(blk *cfgBlock, in uint64) uint64 {
			for _, node := range blk.nodes {
				in = lkTransferNode(m, p, pkg, u, key, node, in, report)
			}
			return in
		}
	}
	in := blockStates(g, 1<<0, transfer(nil)) // entry: not held, no defer

	// Reporting pass: revisit reached blocks in construction order with the
	// final in-states, so diagnostics are emitted deterministically and
	// exactly once per site.
	var ds []Diagnostic
	report := transfer(func(d Diagnostic) { ds = append(ds, d) })
	for _, blk := range g.blocks {
		if s, reached := in[blk]; reached {
			report(blk, s)
		}
	}
	var firstLock *ast.CallExpr
	inspectSkipLits(u.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && firstLock == nil {
			if op := classifyLockOp(m, pkg, call); op != nil && op.key == key && op.lock {
				firstLock = call
			}
		}
		return firstLock == nil
	})

	// Held with no deferred Unlock armed: some path returns still locked.
	if in[g.exit]&(1<<lkHeld) != 0 && firstLock != nil {
		ds = append(ds, Diagnostic{
			Pos:  m.Position(firstLock.Pos()),
			Rule: "locks",
			Message: fmt.Sprintf("%s: %s.Lock has no Unlock on some path to return; a leaked lock hangs the next acquirer — add defer %s.Unlock() or unlock on every path",
				u.name, key, key),
		})
	}
	return ds
}

// lkTransferNode folds one CFG node into the held-state set for key,
// reporting per-site violations when report is non-nil.
func lkTransferNode(m *Module, p *Policy, pkg *Package, u funcUnit, key string, node ast.Node, in uint64, report func(Diagnostic)) uint64 {
	// defer mu.Unlock() (direct or inside a deferred literal) arms the
	// deferred bit; it discharges the lock at return on every later path.
	if def, ok := node.(*ast.DeferStmt); ok {
		if lkDeferredUnlocks(m, pkg, def, key) {
			return mapStates(in, func(s int) int { return s | lkDeferred })
		}
		return in
	}

	out := in
	inspectSkipLits(node, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op := classifyLockOp(m, pkg, call)
		switch {
		case op != nil && op.key == key && op.lock:
			if !op.read && lkAnyHeld(out) && report != nil {
				report(Diagnostic{
					Pos:  m.Position(call.Pos()),
					Rule: "locks",
					Message: fmt.Sprintf("%s: %s.Lock while %s may already be held (self-deadlock)",
						u.name, key, key),
				})
			}
			out = mapStates(out, func(s int) int { return s | lkHeld })
		case op != nil && op.key == key && !op.lock:
			if !lkAnyHeld(out) && report != nil {
				report(Diagnostic{
					Pos:     m.Position(call.Pos()),
					Rule:    "locks",
					Message: fmt.Sprintf("%s: %s.Unlock while %s cannot be held on any path here", u.name, key, key),
				})
			}
			out = mapStates(out, func(s int) int { return s &^ lkHeld })
		case op == nil:
			// Ordinary call: the leaf-lock re-entry check.
			leaf := lkLeafFor(m, p, pkg, u, key)
			if leaf == "" || !lkAnyHeld(out) {
				return true
			}
			if rel, layered := lkLayeredCallee(m, p, pkg, call); layered && report != nil {
				report(Diagnostic{
					Pos:  m.Position(call.Pos()),
					Rule: "locks",
					Message: fmt.Sprintf("%s: call into layered package %s while leaf lock %s may be held; the leaf contract (%s) is acquire-last/release-first — release before re-entering the stack",
						u.name, rel, key, leaf),
				})
			}
		}
		return true
	})
	return out
}

// lkAnyHeld reports whether any reachable state holds the lock.
func lkAnyHeld(set uint64) bool {
	return set&(1<<lkHeld) != 0 || set&(1<<(lkHeld|lkDeferred)) != 0
}

// lkLeafFor returns the LeafLocks justification when key names a declared
// leaf mutex in this unit (matched via the qualified field of any lock op
// with this key), else "".
func lkLeafFor(m *Module, p *Policy, pkg *Package, u funcUnit, key string) string {
	why := ""
	inspectSkipLits(u.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op := classifyLockOp(m, pkg, call); op != nil && op.key == key && op.field != "" {
			if j, isLeaf := p.LeafLocks[op.field]; isLeaf {
				why = j
				return false
			}
		}
		return true
	})
	return why
}

// lkLayeredCallee reports whether call resolves into a package with a layer
// assignment (the simulated stack); shared leaves (obs, trace) and the
// standard library are fine under a leaf lock.
func lkLayeredCallee(m *Module, p *Policy, pkg *Package, call *ast.CallExpr) (string, bool) {
	obj := calleeObject(pkg.Info, call)
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	rel, inModule := strings.CutPrefix(obj.Pkg().Path(), m.Path+"/")
	if !inModule {
		return "", false // the module root has no layer, like everything outside the module
	}
	_, layered := p.Layers[rel]
	return rel, layered
}

// lkDeferredUnlocks reports whether def discharges key: `defer mu.Unlock()`
// or a deferred literal whose body unlocks it.
func lkDeferredUnlocks(m *Module, pkg *Package, def *ast.DeferStmt, key string) bool {
	if op := classifyLockOp(m, pkg, def.Call); op != nil && op.key == key && !op.lock {
		return true
	}
	lit, ok := def.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if op := classifyLockOp(m, pkg, call); op != nil && op.key == key && !op.lock {
				found = true
			}
		}
		return !found
	})
	return found
}

// classifyLockOp recognizes mutex method calls: <expr>.Lock/Unlock/RLock/
// RUnlock where <expr> has type sync.Mutex or sync.RWMutex (possibly
// through a pointer).
func classifyLockOp(m *Module, pkg *Package, call *ast.CallExpr) *lockOp {
	se, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	var lock, read bool
	switch se.Sel.Name {
	case "Lock":
		lock = true
	case "RLock":
		lock, read = true, true
	case "Unlock":
	case "RUnlock":
		read = true
	default:
		return nil
	}
	t := pkg.Info.TypeOf(se.X)
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return nil
	}
	if name := named.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return nil
	}
	op := &lockOp{call: call, key: exprText(se.X), lock: lock, read: read}
	if rse, ok := ast.Unparen(se.X).(*ast.SelectorExpr); ok {
		op.field = fieldQualified(m, pkg, rse)
	}
	return op
}

// exprText renders the receiver expression as the dataflow key. Same
// spelling ⇒ same mutex within one function body, which holds for the
// receiver chains this codebase uses (n.mu, l.mu).
func exprText(e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, token.NewFileSet(), e)
	return buf.String()
}
