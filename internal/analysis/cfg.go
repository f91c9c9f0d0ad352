package analysis

// cfg.go is a lightweight intraprocedural control-flow graph over go/ast,
// built only on the standard library like the rest of the suite. It exists
// so the path-sensitive rules (wakereach, locks) can ask "does property P
// hold on *every* path to return?" instead of "does P appear somewhere in
// the body?" — the difference between catching the PR 3 VI.Close hang and
// missing it.
//
// The model is deliberately small:
//
//   - Blocks hold statements and branch conditions in execution order; every
//     function has one entry block and one synthetic exit block that all
//     returns (and the fall-off-the-end path) feed into.
//   - Function literals are NOT part of the enclosing graph: a literal's
//     body runs in its own activation, usually at another point of virtual
//     time (a scheduled callback), so each literal is analyzed as a separate
//     unit (see funcUnits).
//   - A statement that is a call to the builtin panic (or os.Exit) is
//     terminal: no edge to the exit, so paths that die are never checked
//     against return-path invariants.
//   - break/continue/goto/fallthrough and labels are modelled precisely
//     enough for the shapes this codebase uses; an unresolvable label simply
//     drops the edge, which errs toward fewer paths (never false negatives
//     on the paths that remain).

import (
	"go/ast"
	"go/token"
	"go/types"
)

// cfgBlock is one basic block: nodes executed in order, then a jump to one
// of succs (or to nowhere, for terminal blocks).
type cfgBlock struct {
	index int
	nodes []ast.Node // statements and bare condition/tag expressions
	succs []*cfgBlock
}

// cfg is the graph for one function body.
type cfg struct {
	entry  *cfgBlock
	exit   *cfgBlock // synthetic; every return edge lands here
	blocks []*cfgBlock
}

// reachable returns the set of blocks reachable from the entry.
func (g *cfg) reachable() map[*cfgBlock]bool {
	seen := map[*cfgBlock]bool{g.entry: true}
	work := []*cfgBlock{g.entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}

type cfgBuilder struct {
	g            *cfg
	breakTargets []cfgTarget
	contTargets  []cfgTarget
	labels       map[string]*cfgBlock
	pendingGotos []pendingGoto
	pendingLabel string // label naming the next loop/switch, for break L
}

type cfgTarget struct {
	label string
	block *cfgBlock
}

type pendingGoto struct {
	from  *cfgBlock
	label string
}

// buildCFG constructs the graph for one function body.
func buildCFG(body *ast.BlockStmt) *cfg {
	b := &cfgBuilder{g: &cfg{}, labels: map[string]*cfgBlock{}}
	b.g.entry = b.newBlock()
	b.g.exit = b.newBlock()
	end := b.stmtList(body.List, b.g.entry)
	b.edge(end, b.g.exit)
	for _, pg := range b.pendingGotos {
		if t, ok := b.labels[pg.label]; ok {
			b.edge(pg.from, t)
		}
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *cfgBlock) {
	from.succs = append(from.succs, to)
}

// takeLabel consumes the label set by an enclosing LabeledStmt, so labelled
// loops and switches register break/continue targets under their name.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *cfgBlock) {
	b.breakTargets = append(b.breakTargets, cfgTarget{label, brk})
	b.contTargets = append(b.contTargets, cfgTarget{label, cont})
}

func (b *cfgBuilder) popLoop() {
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	b.contTargets = b.contTargets[:len(b.contTargets)-1]
}

func (b *cfgBuilder) pushBreak(label string, brk *cfgBlock) {
	b.breakTargets = append(b.breakTargets, cfgTarget{label, brk})
}

func (b *cfgBuilder) popBreak() {
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
}

func findTarget(ts []cfgTarget, label string) *cfgBlock {
	for i := len(ts) - 1; i >= 0; i-- {
		if label == "" || ts[i].label == label {
			return ts[i].block
		}
	}
	return nil
}

func branchLabel(s *ast.BranchStmt) string {
	if s.Label != nil {
		return s.Label.Name
	}
	return ""
}

func (b *cfgBuilder) stmtList(list []ast.Stmt, cur *cfgBlock) *cfgBlock {
	for _, s := range list {
		cur = b.stmt(s, cur)
	}
	return cur
}

// stmt appends s (and its sub-structure) to the graph starting at cur and
// returns the block where execution continues afterwards.
func (b *cfgBuilder) stmt(s ast.Stmt, cur *cfgBlock) *cfgBlock {
	switch s := s.(type) {
	case nil:
		return cur

	case *ast.BlockStmt:
		return b.stmtList(s.List, cur)

	case *ast.IfStmt:
		if s.Init != nil {
			cur = b.stmt(s.Init, cur)
		}
		cur.nodes = append(cur.nodes, s.Cond)
		then := b.newBlock()
		b.edge(cur, then)
		join := b.newBlock()
		b.edge(b.stmtList(s.Body.List, then), join)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cur, els)
			b.edge(b.stmt(s.Else, els), join)
		} else {
			b.edge(cur, join)
		}
		return join

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur = b.stmt(s.Init, cur)
		}
		head := b.newBlock()
		b.edge(cur, head)
		if s.Cond != nil {
			head.nodes = append(head.nodes, s.Cond)
		}
		body := b.newBlock()
		b.edge(head, body)
		join := b.newBlock()
		if s.Cond != nil {
			b.edge(head, join) // condition false; condition-less loops only exit via break
		}
		cont := head
		var post *cfgBlock
		if s.Post != nil {
			post = b.newBlock()
			cont = post
		}
		b.pushLoop(label, join, cont)
		bodyEnd := b.stmtList(s.Body.List, body)
		b.popLoop()
		if post != nil {
			b.edge(bodyEnd, post)
			b.edge(b.stmt(s.Post, post), head)
		} else {
			b.edge(bodyEnd, head)
		}
		return join

	case *ast.RangeStmt:
		label := b.takeLabel()
		if s.X != nil {
			cur.nodes = append(cur.nodes, s.X)
		}
		head := b.newBlock()
		b.edge(cur, head)
		body := b.newBlock()
		join := b.newBlock()
		b.edge(head, body)
		b.edge(head, join)
		b.pushLoop(label, join, head)
		b.edge(b.stmtList(s.Body.List, body), head)
		b.popLoop()
		return join

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur = b.stmt(s.Init, cur)
		}
		if s.Tag != nil {
			cur.nodes = append(cur.nodes, s.Tag)
		}
		return b.switchClauses(label, s.Body.List, cur, true)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur = b.stmt(s.Init, cur)
		}
		cur.nodes = append(cur.nodes, s.Assign)
		return b.switchClauses(label, s.Body.List, cur, false)

	case *ast.SelectStmt:
		label := b.takeLabel()
		join := b.newBlock()
		b.pushBreak(label, join)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			entry := b.newBlock()
			b.edge(cur, entry)
			if cc.Comm != nil {
				entry.nodes = append(entry.nodes, cc.Comm)
			}
			b.edge(b.stmtList(cc.Body, entry), join)
		}
		b.popBreak()
		return join

	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, s)
		b.edge(cur, b.g.exit)
		return b.newBlock() // unreachable continuation

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := findTarget(b.breakTargets, branchLabel(s)); t != nil {
				b.edge(cur, t)
			}
			return b.newBlock()
		case token.CONTINUE:
			if t := findTarget(b.contTargets, branchLabel(s)); t != nil {
				b.edge(cur, t)
			}
			return b.newBlock()
		case token.GOTO:
			b.pendingGotos = append(b.pendingGotos, pendingGoto{cur, branchLabel(s)})
			return b.newBlock()
		default: // fallthrough: the edge is added by switchClauses
			return cur
		}

	case *ast.LabeledStmt:
		lbl := b.newBlock()
		b.edge(cur, lbl)
		b.labels[s.Label.Name] = lbl
		b.pendingLabel = s.Label.Name
		return b.stmt(s.Stmt, lbl)

	case *ast.ExprStmt:
		cur.nodes = append(cur.nodes, s)
		if isTerminalCall(s.X) {
			return b.newBlock() // panic: the path dies here, no exit edge
		}
		return cur

	default:
		// DeferStmt, GoStmt, AssignStmt, IncDecStmt, DeclStmt, SendStmt,
		// EmptyStmt: straight-line.
		cur.nodes = append(cur.nodes, s)
		return cur
	}
}

// switchClauses wires case clauses between the tag block and a join block.
// Without a default clause, the tag block flows to the join directly (the
// no-case-matched path).
func (b *cfgBuilder) switchClauses(label string, clauses []ast.Stmt, cur *cfgBlock, allowFallthrough bool) *cfgBlock {
	join := b.newBlock()
	b.pushBreak(label, join)
	entries := make([]*cfgBlock, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		entries[i] = b.newBlock()
		b.edge(cur, entries[i])
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			entries[i].nodes = append(entries[i].nodes, e)
		}
	}
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		end := b.stmtList(cc.Body, entries[i])
		if allowFallthrough && endsInFallthrough(cc.Body) && i+1 < len(clauses) {
			b.edge(end, entries[i+1])
		} else {
			b.edge(end, join)
		}
	}
	if !hasDefault {
		b.edge(cur, join)
	}
	b.popBreak()
	return join
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// isTerminalCall reports whether expr is a call that never returns. Purely
// syntactic (the CFG needs no type info): the builtin panic, and os.Exit.
func isTerminalCall(expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		if x, ok := fn.X.(*ast.Ident); ok {
			return x.Name == "os" && fn.Sel.Name == "Exit"
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Analysis units and traversal helpers

// funcUnit is one analyzable body: a declared function, or a function
// literal. A literal gets its own unit because it executes in its own
// activation — often at a later point of virtual time — so conflating its
// paths with the enclosing body's would be wrong in both directions. The
// unit keeps the *enclosing declaration's* policy-qualified name, so one
// policy entry covers a function and the callbacks it schedules.
type funcUnit struct {
	name string // policy-qualified name of the enclosing declaration
	decl *ast.FuncDecl
	lit  *ast.FuncLit // non-nil when the unit is a literal
	body *ast.BlockStmt
}

// funcUnits collects the analyzable bodies of one file in source order.
func funcUnits(pkg *Package, file *ast.File) []funcUnit {
	var units []funcUnit
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		name := enclosingFuncName(pkg, file, fd.Name.Pos())
		units = append(units, funcUnit{name: name, decl: fd, body: fd.Body})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				units = append(units, funcUnit{name: name, decl: fd, lit: lit, body: lit.Body})
			}
			return true
		})
	}
	return units
}

// inspectSkipLits walks n in preorder like ast.Inspect but does not descend
// into function literals: a literal's body is a different funcUnit.
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

// identObj returns the variable a bare identifier denotes; nil for any other
// expression, and for the blank identifier.
func identObj(info *types.Info, e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return info.ObjectOf(id)
	}
	return nil
}

// rootVar returns the variable a selector/index/deref chain starts from.
func rootVar(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok {
				return v
			}
			return nil // a package or a function, not a variable
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// mapStates applies f to every abstract state in a may-analysis bitset (bit
// s set ⇔ state s reachable) and returns the resulting set.
func mapStates(set uint64, f func(int) int) uint64 {
	var out uint64
	for s := 0; set>>s != 0; s++ {
		if set&(1<<s) != 0 {
			out |= 1 << f(s)
		}
	}
	return out
}

// blockStates runs a forward may-analysis to fixpoint: the in-state of a
// block is the union of its predecessors' out-states, states are bitsets
// (bit i set ⇔ abstract state i reachable at block entry), and transfer
// folds a block's nodes. Returns the final in-state of every reached block.
func blockStates(g *cfg, entryState uint64, transfer func(b *cfgBlock, in uint64) uint64) map[*cfgBlock]uint64 {
	in := map[*cfgBlock]uint64{g.entry: entryState}
	work := []*cfgBlock{g.entry}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		out := transfer(blk, in[blk])
		for _, s := range blk.succs {
			if prev, seen := in[s]; !seen || prev|out != prev {
				in[s] = prev | out
				work = append(work, s)
			}
		}
	}
	return in
}
