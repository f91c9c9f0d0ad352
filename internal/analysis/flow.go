package analysis

// flow.go is the per-body dataflow harness under the path rule, paired. The
// rule describes what one CFG node does to a bitset of abstract states; the
// harness owns everything else: the CFG, built once per body however many
// derived-acquire rounds ask; the forward may-analysis; the map from any
// syntax node back to the CFG node that holds its state; and what a defer
// runs.

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
