package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"
	"strings"
)

// The abstract states of one mutex on one path (bit indices of the may-set):
// whether it is held, and whether a deferred Unlock is armed.
const (
	lkHeld     = 1 << 0
	lkDeferred = 1 << 1
)

// LocksAnalyzer is the whole-program lock discipline. One held-state dataflow
// per mutex per body yields both halves: the per-path reports — a Lock some
// path never unlocks, a Lock of a mutex that may already be held, an Unlock of
// one that cannot be, a call into a layered package under a leaf lock — and
// the global acquisition-order graph, an edge A→B wherever B is acquired
// (directly, or by anything a call reaches) while A may be held, whose every
// cycle is a potential deadlock.
func LocksAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "locks",
		Doc:  "every Lock pairs with an Unlock on all paths, no leaf lock is held across a layered call, the lock-order graph is acyclic",
		Explain: `docs/ARCHITECTURE.md, "Enforced invariants": the simulated world is
single-threaded by construction (the determinism rule bans sync there), so
every mutex in the tree lives where real threads do: the real-socket twin
internal/tcpvia (Node.mu, Manager.mu, Channel.mu, VI.writeMu,
PeerRequest.doneMu, the EventLog leaf), the batch runner's progress tracker
and the tcpring example. One held-state dataflow per mutex over every body
yields two things. Per CFG path: a Lock is always discharged by an Unlock
or a deferred Unlock before return (a leaked lock hangs the next acquirer
the way a missed wake hangs a waiter); a Lock never re-acquires a mutex
that may already be held, and an Unlock never releases one that cannot be;
and while a Policy.LeafLocks mutex may be held — a leaf is acquired last
and released first — no call resolves into a package with a layer in the
DAG, where it could park, take node locks or call back into the log.
Across the program: deadlock is a global property (thread 1 holding A while
acquiring B against thread 2 holding B while acquiring A, both functions
locally impeccable), so the rule derives from the shared call graph the
locks each function may transitively acquire, adds an order edge A→B at
every acquisition of B, or call that can acquire B, while A may be held,
and reports each cycle with one witness site per edge; F holding A and
calling a G that locks A again is the cycle of length one. Lock identity is
the declared struct field ("internal/tcpvia.(Node).mu"), so all instances
of a field share one node — coarse, but the granularity a lock hierarchy is
written at. Reviewed exceptions go under Policy.Exceptions["locks"], keyed
"A -> B", with why the two orders can never be live concurrently.`,
		Subject: subjLockEdge,
		Run:     runLocks,
	}
}

// lockOp classifies one mutex call site.
type lockOp struct {
	// id names the mutex: its qualified struct field, or — for a mutex that
	// is no field (a package-level or local variable) — its spelling.
	id   string
	lock bool // Lock/RLock vs Unlock/RUnlock
	read bool // RLock/RUnlock (shared: re-acquiring is not self-deadlock)
}

// lockEdge is one order edge with its first witness site.
type lockEdge struct {
	from, to string
	pos      ast.Node // the acquisition (or call) establishing the edge
	via      string   // function containing the witness
	callee   string   // non-empty when the edge goes through a call chain
}

func runLocks(m *Module, p *Policy) []Diagnostic {
	ds, edges := lockFacts(m, p)
	return append(ds, reportLockCycles(m, p, edges)...)
}

// lockFacts returns the per-path reports and the order graph, keyed "A -> B".
func lockFacts(m *Module, p *Policy) ([]Diagnostic, map[string]*lockEdge) {
	ip := m.Interproc()

	// Summary: the set of mutexes each function may transitively acquire
	// *synchronously*, via a union fixpoint over the call graph. Literal
	// bodies are excluded on both sides — a literal runs in its own
	// activation (a goroutine, a timer callback, a scheduled event), so its
	// acquisitions are not held on the calling path. The time.AfterFunc
	// wake-up in tcpvia's waitLocked is the live example: folding it in
	// would report a Node.mu self-deadlock on a path that cannot exist.
	acquires := map[string]map[string]bool{}
	declCallees := map[string][]string{}
	for _, key := range ip.Keys {
		f := ip.Funcs[key]
		acquires[key] = map[string]bool{}
		callees := map[string]bool{}
		for _, u := range f.Units {
			if u.lit != nil {
				continue
			}
			inspectSkipLits(u.body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if op := classifyLockOp(m, f.Pkg, call); op != nil && op.lock {
					acquires[key][op.id] = true
				}
				for _, callee := range resolveSiteCallees(ip, key, call) {
					callees[callee] = true
				}
				return true
			})
		}
		declCallees[key] = slices.Sorted(maps.Keys(callees))
	}
	ip.fixpoint(func(key string) bool {
		set := acquires[key]
		before := len(set)
		for _, callee := range declCallees[key] {
			for id := range acquires[callee] {
				set[id] = true
			}
		}
		return len(set) != before
	})

	var ds []Diagnostic
	edges := map[string]*lockEdge{}
	for _, key := range ip.Keys {
		f := ip.Funcs[key]
		for _, u := range f.Units {
			for _, id := range unitLocks(m, f.Pkg, u) {
				ds = append(ds, checkLock(m, p, f.Pkg, u, id, acquires, edges)...)
			}
		}
	}
	return ds, edges
}

// unitLocks returns the sorted mutexes this unit itself locks or unlocks.
func unitLocks(m *Module, pkg *Package, u funcUnit) []string {
	set := map[string]bool{}
	inspectSkipLits(u.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if op := classifyLockOp(m, pkg, call); op != nil {
				set[op.id] = true
			}
		}
		return true
	})
	return slices.Sorted(maps.Keys(set))
}

// checkLock runs the held-state dataflow for one mutex over one body, then
// walks the body in source order (deterministic reports and witnesses) asking
// of every call what the state before it allows: the per-path reports come
// back as diagnostics, the order edges go into edges.
func checkLock(m *Module, p *Policy, pkg *Package, u funcUnit, id string, acquires map[string]map[string]bool, edges map[string]*lockEdge) []Diagnostic {
	ip := m.Interproc()
	var ds []Diagnostic
	report := func(at ast.Node, format string, args ...any) {
		ds = append(ds, Diagnostic{Pos: m.Position(at.Pos()), Rule: "locks", Message: u.name + ": " + fmt.Sprintf(format, args...)})
	}
	addEdge := func(to string, witness ast.Node, callee string) {
		if key := id + " -> " + to; edges[key] == nil {
			edges[key] = &lockEdge{from: id, to: to, pos: witness, via: u.name, callee: callee}
		}
	}
	transfer := func(node ast.Node, in uint64) uint64 { return lkTransfer(m, pkg, id, node, in) }
	states := ip.flow(u.body).solve(1<<0, transfer) // entry: not held, no defer

	var firstLock *ast.CallExpr
	inspectSkipLits(u.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		in, reached := states.before(call)
		if !reached {
			return true
		}
		held := lkAnyHeld(in)
		switch op := classifyLockOp(m, pkg, call); {
		case op == nil && held:
			// An ordinary call under the lock: the leaf contract, and whatever
			// the callee can acquire.
			if leaf := p.LeafLocks[id]; leaf != "" {
				if rel, layered := lkLayeredCallee(m, p, pkg, call); layered {
					report(call, "call into layered package %s while leaf lock %s may be held; the leaf contract (%s) is acquire-last/release-first — release before re-entering the stack", rel, id, leaf)
				}
			}
			for _, callee := range resolveSiteCallees(ip, u.name, call) {
				for _, to := range slices.Sorted(maps.Keys(acquires[callee])) {
					addEdge(to, call, callee)
				}
			}
		case op == nil:
		case op.id != id:
			if op.lock && held {
				addEdge(op.id, call, "")
			}
		case op.lock:
			if firstLock == nil {
				firstLock = call
			}
			if held && !op.read {
				report(call, "%s.Lock while it may already be held (self-deadlock)", id)
			}
		case !held && u.lit == nil: // a literal may unlock what the body that made it locked
			report(call, "%s.Unlock while it cannot be held on any path here", id)
		}
		return true
	})

	// Held with no deferred Unlock armed: some path returns still locked.
	if firstLock != nil && states.exit()&(1<<lkHeld) != 0 {
		report(firstLock, "%s.Lock has no Unlock on some path to return; a leaked lock hangs the next acquirer — add a deferred Unlock or unlock on every path", id)
	}
	return ds
}

// lkTransfer folds one CFG node into the held-state set of one mutex.
func lkTransfer(m *Module, pkg *Package, id string, node ast.Node, in uint64) uint64 {
	// defer mu.Unlock() (direct or inside a deferred literal) arms the
	// deferred bit; it discharges the lock at return on every later path.
	if def, ok := node.(*ast.DeferStmt); ok {
		for _, call := range deferred(def) {
			if op := classifyLockOp(m, pkg, call); op != nil && op.id == id && !op.lock {
				return mapStates(in, func(s int) int { return s | lkDeferred })
			}
		}
		return in
	}
	out := in
	inspectSkipLits(node, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if op := classifyLockOp(m, pkg, call); op != nil && op.id == id {
				if op.lock {
					out = mapStates(out, func(s int) int { return s | lkHeld })
				} else {
					out = mapStates(out, func(s int) int { return s &^ lkHeld })
				}
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
	op := &lockOp{lock: lock, read: read}
	if rse, ok := ast.Unparen(se.X).(*ast.SelectorExpr); ok {
		op.id = fieldQualified(m, pkg, rse)
	}
	if op.id == "" {
		var buf bytes.Buffer
		_ = printer.Fprint(&buf, token.NewFileSet(), se.X) // a bytes.Buffer write cannot fail
		op.id = buf.String()
	}
	return op
}

// reportLockCycles finds cycles in the order graph and renders one
// diagnostic per cycle, anchored at the lexicographically-first edge's
// witness.
func reportLockCycles(m *Module, p *Policy, edges map[string]*lockEdge) []Diagnostic {
	succ := map[string][]string{}
	for _, id := range slices.Sorted(maps.Keys(edges)) {
		if e := edges[id]; !p.excused("locks", id) {
			succ[e.from] = append(succ[e.from], e.to)
		}
	}
	var ds []Diagnostic
	reported := map[string]bool{}
	for _, start := range slices.Sorted(maps.Keys(succ)) {
		cycle := findCycleFrom(succ, start)
		if cycle == nil {
			continue
		}
		sig := cycleSignature(cycle)
		if reported[sig] {
			continue
		}
		reported[sig] = true
		var parts []string
		for i := range cycle {
			e := edges[cycle[i]+" -> "+cycle[(i+1)%len(cycle)]]
			via := e.via
			if e.callee != "" {
				via += " -> " + e.callee
			}
			file := strings.TrimPrefix(m.Position(e.pos.Pos()).Filename, m.Root+"/")
			parts = append(parts, fmt.Sprintf("%s acquired while %s held (%s, %s:%d)",
				e.to, e.from, via, file, m.Position(e.pos.Pos()).Line))
		}
		first := edges[cycle[0]+" -> "+cycle[1%len(cycle)]]
		ds = append(ds, Diagnostic{
			Pos:  m.Position(first.pos.Pos()),
			Rule: "locks",
			Message: fmt.Sprintf("lock-order cycle (potential deadlock): %s; every thread must acquire these locks in one global order — restructure, or justify under Policy.Exceptions[\"locks\"]",
				strings.Join(parts, "; ")),
		})
	}
	return ds
}

// findCycleFrom returns the node sequence of a cycle reachable from start
// that passes through start, or nil. DFS over sorted successors keeps the
// result deterministic.
func findCycleFrom(succ map[string][]string, start string) []string {
	var stack []string
	onStack := map[string]bool{}
	var dfs func(n string) []string
	dfs = func(n string) []string {
		stack = append(stack, n)
		onStack[n] = true
		next := append([]string(nil), succ[n]...)
		sort.Strings(next)
		for _, t := range next {
			if t == start {
				return append([]string(nil), stack...)
			}
			if !onStack[t] {
				if c := dfs(t); c != nil {
					return c
				}
			}
		}
		stack = stack[:len(stack)-1]
		onStack[n] = false
		return nil
	}
	return dfs(start)
}

// cycleSignature canonicalizes a cycle (rotation-invariant) so each is
// reported once.
func cycleSignature(cycle []string) string {
	best := 0
	for i := range cycle {
		if cycle[i] < cycle[best] {
			best = i
		}
	}
	var parts []string
	for i := range cycle {
		parts = append(parts, cycle[(best+i)%len(cycle)])
	}
	return strings.Join(parts, "->")
}
