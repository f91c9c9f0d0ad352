package analysis

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// LockOrderAnalyzer builds the global lock-acquisition-order graph of the
// module — an edge A→B whenever some CFG path acquires mutex B while A may
// be held, directly or through any chain of calls — and reports every cycle
// as a potential deadlock. It generalizes the per-function leaf-lock rule
// (locks) to whole-program ordering, including the interprocedural self-
// deadlock the intraprocedural rule cannot see: F holds A and calls G, and
// G (or anything G reaches) locks A again.
func LockOrderAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "the whole-program lock-acquisition-order graph must be acyclic",
		Explain: `docs/ARCHITECTURE.md, "Enforced invariants": the simulated world is
single-threaded, so every mutex in the tree lives in the genuinely
concurrent real-socket twin (internal/tcpvia) — Node.mu, Manager.mu,
Channel.mu, VI.writeMu, PeerRequest.doneMu, and the metrics leaf. The locks
rule proves each function pairs and scopes its own acquisitions, but
deadlock is a *global* property: thread 1 holding A while acquiring B
deadlocks against thread 2 holding B while acquiring A even though both
functions are locally impeccable. This rule derives, from the shared call
graph, the set of locks each function may transitively acquire; runs the
held-lock dataflow over every body; adds an order edge A→B at every
acquisition (or call that can acquire) of B while A may be held; and
reports any cycle in the resulting graph with one witness site per edge.
Lock identity is the declared struct field ("internal/tcpvia.(Node).mu"),
so all instances of a field share one node — coarse, but exactly the
granularity a lock-hierarchy contract is written at. Reviewed exceptions
go under Policy.Exceptions["lockorder"], keyed "A -> B", with the argument
for why the two acquisition orders can never be live concurrently.`,
		Subject: subjLockEdge,
		Run:     runLockOrder,
	}
}

// loEdge is one order edge with its first witness site.
type loEdge struct {
	from, to string
	pos      ast.Node // the acquisition (or call) establishing the edge
	via      string   // function containing the witness
	callee   string   // non-empty when the edge goes through a call chain
}

func runLockOrder(m *Module, p *Policy) []Diagnostic {
	ip := m.Interproc()

	// Summary: the set of lock fields each function may transitively acquire
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
				if op := classifyLockOp(m, f.Pkg, call); op != nil && op.lock && op.field != "" {
					acquires[key][op.field] = true
				}
				for _, callee := range resolveSiteCallees(ip, key, call) {
					callees[callee] = true
				}
				return true
			})
		}
		declCallees[key] = sortedKeys(callees)
	}
	ip.fixpoint(func(key string) bool {
		set := acquires[key]
		before := len(set)
		for _, callee := range declCallees[key] {
			for field := range acquires[callee] {
				set[field] = true
			}
		}
		return len(set) != before
	})

	// Edges: run the held-lock dataflow per unit, per lock field present in
	// that unit, and record what is acquired while each field may be held.
	edges := map[string]*loEdge{}
	addEdge := func(from, to string, witness ast.Node, via, callee string) {
		if from == to && callee == "" {
			return // intraprocedural re-entry is the locks rule's report
		}
		id := from + " -> " + to
		if _, ok := edges[id]; !ok {
			edges[id] = &loEdge{from: from, to: to, pos: witness, via: via, callee: callee}
		}
	}
	for _, key := range ip.Keys {
		f := ip.Funcs[key]
		for _, u := range f.Units {
			fields := unitLockFields(m, f.Pkg, u)
			if len(fields) == 0 {
				continue
			}
			for _, held := range fields {
				held := held
				states := nodeMayStates(u.body, 1<<0, func(node ast.Node, in uint64) uint64 {
					return loTransfer(m, f.Pkg, held, node, in)
				})
				// Deterministic witness order: walk the body in source order.
				inspectSkipLits(u.body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					in, reached := loStateAt(states, u.body, n)
					if !reached || !lkAnyHeld(in) {
						return true
					}
					if op := classifyLockOp(m, f.Pkg, call); op != nil {
						if op.lock && op.field != "" && op.field != held {
							addEdge(held, op.field, call, key, "")
						}
						return true
					}
					for _, callee := range resolveSiteCallees(ip, key, call) {
						for _, field := range sortedKeys(acquires[callee]) {
							addEdge(held, field, call, key, callee)
						}
					}
					return true
				})
			}
		}
	}

	// Cycle detection over the order graph.
	return reportLockCycles(m, p, edges)
}

// unitLockFields returns the sorted lock fields this unit itself acquires.
func unitLockFields(m *Module, pkg *Package, u funcUnit) []string {
	set := map[string]bool{}
	inspectSkipLits(u.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if op := classifyLockOp(m, pkg, call); op != nil && op.lock && op.field != "" {
				set[op.field] = true
			}
		}
		return true
	})
	return sortedKeys(set)
}

// loTransfer folds one CFG node into the held-state bitset for one lock
// field (reusing the lkHeld/lkDeferred encoding from the locks rule).
func loTransfer(m *Module, pkg *Package, field string, node ast.Node, in uint64) uint64 {
	if def, ok := node.(*ast.DeferStmt); ok {
		if op := classifyLockOp(m, pkg, def.Call); op != nil && op.field == field && !op.lock {
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
		if op := classifyLockOp(m, pkg, call); op != nil && op.field == field {
			if op.lock {
				out = mapStates(out, func(s int) int { return s | lkHeld })
			} else {
				out = mapStates(out, func(s int) int { return s &^ lkHeld })
			}
		}
		return true
	})
	return out
}

// loStateAt finds the recorded may-state for the CFG node containing the
// target call. CFG nodes are statements (or bare condition expressions), so
// the lookup walks up from the call through its ancestors to the nearest
// node the dataflow recorded. An unrecorded target sits in an unreached
// block (dead code) and reports false.
func loStateAt(states map[ast.Node]uint64, body *ast.BlockStmt, target ast.Node) (uint64, bool) {
	var found uint64
	ok := false
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if ok {
			return false // drain without pushing; n's children are skipped
		}
		if n == target {
			if s, rec := states[n]; rec {
				found, ok = s, true
			} else {
				for i := len(stack) - 1; i >= 0; i-- {
					if s, rec := states[stack[i]]; rec {
						found, ok = s, true
						break
					}
				}
			}
			return false
		}
		stack = append(stack, n)
		return true
	})
	return found, ok
}

// resolveSiteCallees returns the resolved callees of one call expression,
// looked up in the shared per-function site list.
func resolveSiteCallees(ip *Interproc, key string, call *ast.CallExpr) []string {
	for _, site := range ip.Calls(key) {
		if site.Call == call {
			return site.Callees
		}
	}
	return nil
}

// reportLockCycles finds cycles in the order graph and renders one
// diagnostic per cycle, anchored at the lexicographically-first edge's
// witness.
func reportLockCycles(m *Module, p *Policy, edges map[string]*loEdge) []Diagnostic {
	succ := map[string][]string{}
	for _, id := range sortedKeys(edges) {
		e := edges[id]
		if p.excused("lockorder", id) {
			continue
		}
		succ[e.from] = append(succ[e.from], e.to)
	}
	var ds []Diagnostic
	reported := map[string]bool{}
	var nodes []string
	for n := range succ {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, start := range nodes {
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
		for i := 0; i < len(cycle); i++ {
			e := edges[cycle[i]+" -> "+cycle[(i+1)%len(cycle)]]
			via := e.via
			if e.callee != "" {
				via += " -> " + e.callee
			}
			parts = append(parts, fmt.Sprintf("%s acquired while %s held (%s, %s:%d)",
				e.to, e.from, via, shortFile(m, e.pos), m.Position(e.pos.Pos()).Line))
		}
		first := edges[cycle[0]+" -> "+cycle[1%len(cycle)]]
		ds = append(ds, Diagnostic{
			Pos:  m.Position(first.pos.Pos()),
			Rule: "lockorder",
			Message: fmt.Sprintf("lock-order cycle (potential deadlock): %s; every thread must acquire these locks in one global order — restructure, or justify under Policy.Exceptions[\"lockorder\"]",
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

// shortFile renders a node's filename relative to the module root for
// compact messages.
func shortFile(m *Module, n ast.Node) string {
	name := m.Position(n.Pos()).Filename
	if rest, ok := strings.CutPrefix(name, m.Root+"/"); ok {
		return rest
	}
	return name
}
