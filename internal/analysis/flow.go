package analysis

// flow.go is the one per-body dataflow harness under the path rules (paired,
// locks, wakereach, chargeflow). A rule describes what one CFG node does to a
// bitset of abstract states; the harness owns everything else: the CFG, built
// once per body however many rules and fixpoint sweeps ask; the forward
// may-analysis; the map from any syntax node back to the CFG node that holds
// its state; what a defer runs; and the summary "every path through F does X"
// two of the rules start from.

import (
	"go/ast"
	"sort"
)

// unitFlow is the control-flow view of one unit body.
type unitFlow struct {
	g *cfg
	// nodes is every CFG node in source order. They are pairwise disjoint —
	// compound statements contribute their conditions and leaf statements,
	// never themselves, and literal bodies belong to other units — so
	// position alone finds the node that contains a piece of syntax.
	nodes []ast.Node
}

// flow returns the harness for one body, building it on first use; every
// rule in the run shares it.
func (ip *Interproc) flow(body *ast.BlockStmt) *unitFlow {
	fl := ip.flows[body]
	if fl == nil {
		fl = &unitFlow{g: buildCFG(body)}
		for _, blk := range fl.g.blocks {
			fl.nodes = append(fl.nodes, blk.nodes...)
		}
		sort.Slice(fl.nodes, func(i, j int) bool { return fl.nodes[i].Pos() < fl.nodes[j].Pos() })
		ip.flows[body] = fl
		ip.CFGs++
	}
	return fl
}

// site returns the CFG node containing n — the statement or bare condition
// the dataflow records a state for — or nil when n sits in no node (a
// compound statement, a branch).
func (fl *unitFlow) site(n ast.Node) ast.Node {
	i := sort.Search(len(fl.nodes), func(i int) bool { return fl.nodes[i].End() >= n.End() })
	if i < len(fl.nodes) && fl.nodes[i].Pos() <= n.Pos() {
		return fl.nodes[i]
	}
	return nil
}

// within returns the CFG nodes inside n: every state-carrying step of a
// branch or block.
func (fl *unitFlow) within(n ast.Node) []ast.Node {
	lo := sort.Search(len(fl.nodes), func(i int) bool { return fl.nodes[i].Pos() >= n.Pos() })
	hi := sort.Search(len(fl.nodes), func(i int) bool { return fl.nodes[i].Pos() >= n.End() })
	return fl.nodes[lo:hi]
}

// flowStates is one solved may-analysis over a unitFlow.
type flowStates struct {
	fl       *unitFlow
	transfer func(node ast.Node, in uint64) uint64
	in       map[*cfgBlock]uint64 // per reached block, the state at its entry
	pre      map[ast.Node]uint64  // per reached node, the state before it; filled on first before()
}

// solve runs the forward may-analysis to fixpoint: states are bitsets (bit s
// set ⇔ abstract state s reachable), transfer folds one CFG node.
func (fl *unitFlow) solve(entry uint64, transfer func(node ast.Node, in uint64) uint64) *flowStates {
	in := blockStates(fl.g, entry, func(b *cfgBlock, s uint64) uint64 {
		for _, node := range b.nodes {
			s = transfer(node, s)
		}
		return s
	})
	return &flowStates{fl: fl, transfer: transfer, in: in}
}

// exit is the may-state at the function exit: after every return and the
// fall-off-the-end path. Paths that die in a panic never arrive.
func (s *flowStates) exit() uint64 { return s.in[s.fl.g.exit] }

// before returns the may-state in front of the CFG node containing n: what
// may be held / owed / closed at this call site. It reports false for dead
// code (a node in a block no path reaches).
func (s *flowStates) before(n ast.Node) (uint64, bool) {
	if s.pre == nil {
		s.pre = map[ast.Node]uint64{}
		for _, blk := range s.fl.g.blocks {
			st, reached := s.in[blk]
			if !reached {
				continue
			}
			for _, node := range blk.nodes {
				s.pre[node] = st
				st = s.transfer(node, st)
			}
		}
	}
	st, reached := s.pre[s.fl.site(n)]
	return st, reached
}

// deferred returns the calls a defer statement runs at return: the deferred
// call, or every call in the body of a deferred literal. They run on every
// exit after the defer executed, panics included.
func deferred(def *ast.DeferStmt) []*ast.CallExpr {
	lit, ok := def.Call.Fun.(*ast.FuncLit)
	if !ok {
		return []*ast.CallExpr{def.Call}
	}
	var calls []*ast.CallExpr
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, call)
		}
		return true
	})
	return calls
}

// alwaysOnEveryPath is the greatest fixpoint "every path through F makes a
// call in the set": start with every function in, strike the ones with a
// path to return that makes none. base members are in by definition; a call
// to a function still in the set counts, and so does a deferred one (it runs
// before the return it is checked at). Calls inside literals do not: they
// run in a later activation. It returns the set, and the per-node test the
// fixpoint used — "this CFG node makes such a call" — for the rule's own
// dataflow. On a DeferStmt the test answers for what the defer runs, which
// holds at the return and not at the statement: a rule asking about the sites
// in between (chargeflow) must not apply it there.
func (ip *Interproc) alwaysOnEveryPath(base map[string]bool) (always map[string]bool, does func(pkg *Package, node ast.Node) bool) {
	always = map[string]bool{}
	for _, key := range ip.Keys {
		always[key] = true
	}
	does = func(pkg *Package, node ast.Node) bool {
		found := false
		visit := func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && !found {
				q := calleeName(ip.mod, pkg, call)
				found = base[q] || always[q]
			}
			return !found
		}
		if def, ok := node.(*ast.DeferStmt); ok {
			for _, call := range deferred(def) {
				visit(call)
			}
		} else {
			inspectSkipLits(node, visit)
		}
		return found
	}
	ip.fixpoint(func(key string) bool {
		if !always[key] || base[key] {
			return false
		}
		f := ip.Funcs[key]
		// Bit 0: some path has not made the call yet.
		left := ip.flow(f.Decl.Body).solve(1, func(node ast.Node, in uint64) uint64 {
			if does(f.Pkg, node) {
				return 0
			}
			return in
		}).exit()
		always[key] = left == 0
		return left != 0
	})
	return always, does
}
