package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// wakereach abstract states (bit indices into the dataflow bitset): whether
// an un-woken transition is pending, and whether a deferred waker is armed
// (a deferred waker runs at return, after every later transition, so it
// clears pending at the exit no matter what follows it textually).
const (
	wrPending  = 1 << 0
	wrDeferred = 1 << 1
)

// WakeReachAnalyzer enforces the wait/wake pairing on the VIA state
// machine: a waiter-visible state transition made anywhere in a call chain
// must be reached by a policy-listed waker (Port.notifyActivity) through
// the call graph before the obligation escapes the wake scope. A helper
// may leave the wake to its callers; the rule propagates the obligation
// into those callers and checks that they actually discharge it.
func WakeReachAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "wakereach",
		Doc:  "a park-visible transition must be reached by a wake through the call graph",
		Explain: `docs/ARCHITECTURE.md, "Enforced invariants": the paper's on-demand design
blocks inside VipRecvWait/WaitActivity until "something observable
happened on the port" — the waiting process is parked in virtual time and
runs again only when a completion or state change wakes it. That makes
every transition into a waiter-visible state (assigning a via.ViState or
via.Status location anything but the Policy.WakeStates non-observable
markers: StatusSuccess, StatusDisconnected, ViError, ViClosed, ...) half
of a contract: the other half is a Policy.Wakers call (notifyActivity)
before control leaves the provider, or the waiter sleeps forever and the
simulation deadlocks with virtual time unable to advance. The PR 3
VI.Close hang is the motivating case: Close failed pending descriptors (a
transition helpers made on its behalf) and returned without the wake,
hanging a parked RecvWait. This rule computes, over the shared call
graph, alwaysWakes(F) — every path through F wakes — and owesWake(F) —
some path transitions (directly, or by calling an owing helper) and
returns without a wake (direct, deferred, or via an alwaysWakes callee).
The obligation may flow upward between in-scope functions, because a
caller can legitimately own the wake (failPending's callers do); the
diagnostic fires when an owing function's obligation escapes — it is
exported, is called from outside Policy.WakeScope, or has no module
callers at all — so no caller inside the provider can discharge it.
Owner-thread entry points whose caller is by definition not parked are
justified under Policy.Exceptions["wakereach"].`,
		Subject: subjFunc,
		Run:     runWakeReach,
	}
}

func runWakeReach(m *Module, p *Policy) []Diagnostic {
	ip := m.Interproc()

	// alwaysWakes(F): every path through F wakes, directly or through a
	// callee that always wakes. Policy-listed wakers qualify by definition.
	always, wakes := ip.alwaysOnEveryPath(p.Wakers)

	// owesWake: least fixpoint over the in-scope functions. The transfer
	// depends on the evolving owes map (a call to an owing helper raises the
	// obligation mid-path), so each sweep re-runs the dataflow.
	owes := map[string]bool{}
	witness := map[string]ast.Node{}
	inScope := func(key string) bool {
		f := ip.Funcs[key]
		return f != nil && p.WakeScope[f.Pkg.Rel]
	}
	ip.fixpoint(func(key string) bool {
		if owes[key] || !inScope(key) || p.Wakers[key] {
			return false
		}
		f := ip.Funcs[key]
		for _, u := range f.Units {
			var firstTrigger ast.Node
			exit := ip.flow(u.body).solve(1<<0, func(node ast.Node, in uint64) uint64 {
				return wrTransfer(m, p, f.Pkg, always, owes, wakes, node, in, &firstTrigger)
			}).exit()
			// Pending with no deferred waker armed: some path returns owing.
			if exit&(1<<wrPending) != 0 {
				owes[key] = true
				witness[key] = firstTrigger
				return true
			}
		}
		return false
	})

	// The obligation escapes when no in-scope caller can discharge it.
	var ds []Diagnostic
	for _, key := range sortedKeys(owes) {
		if p.excused("wakereach", key) {
			continue
		}
		f := ip.Funcs[key]
		callers := ip.Callers(key)
		escape := ""
		switch {
		case f.Exported:
			escape = "it is exported, so callers outside the provider reach it directly"
		case len(callers) == 0:
			escape = "it has no module callers to discharge the obligation"
		default:
			for _, c := range callers {
				if !inScope(c) {
					escape = fmt.Sprintf("it is called from %s, outside the wake scope", c)
					break
				}
			}
		}
		if escape == "" {
			continue // every caller is in scope and inherits the obligation
		}
		ds = append(ds, Diagnostic{
			Pos:  m.Position(witness[key].Pos()),
			Rule: "wakereach",
			Message: fmt.Sprintf("%s moves state a blocked waiter observes (directly or via a helper) and can return without any wake (notifyActivity) reaching it: %s; a parked WaitActivity would sleep forever — wake on every path, or justify the owner-thread contract under Policy.Exceptions[\"wakereach\"]",
				key, escape),
		})
	}
	return ds
}

// wrTransfer folds one CFG node into the wrPending/wrDeferred state set: a
// transition, or a call to an owing helper, raises the obligation; a waker,
// or a call to an alwaysWakes callee, discharges it; a deferred waker arms
// the discharge for every later return. (No statement in scope both
// transitions and wakes, so raise-then-wake order inside one node is moot.)
func wrTransfer(m *Module, p *Policy, pkg *Package, always, owes map[string]bool, wakes func(*Package, ast.Node) bool, node ast.Node, in uint64, firstTrigger *ast.Node) uint64 {
	if def, ok := node.(*ast.DeferStmt); ok {
		if wakes(pkg, def) {
			return mapStates(in, func(s int) int { return s | wrDeferred })
		}
		return in
	}
	out := in
	raise := wrTransitions(m, p, pkg, node)
	wake := false
	inspectSkipLits(node, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// A helper that wakes and then transitions both always wakes and
		// owes: what it leaves behind is the obligation.
		switch q := calleeName(m, pkg, call); {
		case p.Wakers[q]:
			wake = true
		case owes[q]:
			raise = true
		case always[q]:
			wake = true
		}
		return true
	})
	if raise {
		if *firstTrigger == nil {
			*firstTrigger = node
		}
		out = mapStates(out, func(s int) int { return s | wrPending })
	}
	if wake {
		out = mapStates(out, func(s int) int { return s &^ wrPending })
	}
	return out
}

// wrTransitions reports whether node contains a waiter-visible state
// assignment (not descending into literals — those are separate units). An
// assignment counts when the LHS is a selector of a Policy.WakeStates type
// and the RHS is not one of the type's listed non-observable constants; an
// RHS the analysis cannot resolve to a constant counts (conservative:
// failPending's parameterized status is a transition, discharged by its
// callers).
func wrTransitions(m *Module, p *Policy, pkg *Package, node ast.Node) bool {
	found := false
	inspectSkipLits(node, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || found {
			return !found
		}
		for i, lhs := range as.Lhs {
			se, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			t := pkg.Info.TypeOf(se)
			named, ok := t.(*types.Named)
			if !ok || named.Obj().Pkg() == nil {
				continue
			}
			qual := relQualified(m.Path, named.Obj().Pkg().Path()) + "." + named.Obj().Name()
			nonObservable, watched := p.WakeStates[qual]
			if !watched {
				continue
			}
			if len(as.Lhs) == len(as.Rhs) && wrIsNonObservableConst(pkg, as.Rhs[i], nonObservable) {
				continue
			}
			found = true
		}
		return !found
	})
	return found
}

func wrIsNonObservableConst(pkg *Package, rhs ast.Expr, nonObservable []string) bool {
	var obj types.Object
	switch e := ast.Unparen(rhs).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[e]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[e.Sel]
	default:
		return false
	}
	c, ok := obj.(*types.Const)
	if !ok {
		return false
	}
	for _, name := range nonObservable {
		if c.Name() == name {
			return true
		}
	}
	return false
}
