package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// FSMAnalyzer extracts the connection state machine from the code itself —
// states from the channel-state enum, transitions from every assignment to
// the state field with the guards that dominate it — and requires every
// declared state to be enterable. FSMDot renders the same extraction.
func FSMAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "fsm",
		Doc:  "every state of the extracted connection state machine is entered",
		Explain: `docs/ARCHITECTURE.md, the VI/channel lifecycle: the connection manager is
a distributed state machine (Idle → Connecting → Connected → Disconnected/
Closed with NACK resets and BYE eviction), and every deadlock or leak the
paper's on-demand argument must exclude lives in its transitions. Instead
of trusting a hand-drawn diagram, this rule extracts the machine from the
code: states are the constants of the Policy.FSMStates enum, transitions
are the assignments to the owning struct field, and each transition's
source states are inferred from the guards dominating the assignment
(enclosing if/switch conditions over the field, and early-return guards
earlier in the body). A state no assignment ever enters is dead — wire a
transition or delete it. viampi-vet -fsm-dot renders the extraction as
DOT; docs/connection-fsm.dot is the committed artifact and make check
diffs it, so the architecture diagram cannot drift from the code. The
2-peer product automata over this machine (establishment under ConnReq
drop/refusal/reordering, the BYE eviction handshake) are model-checked by
the package's tests, which also assert the extraction has the edges the
models rely on; their verdict does not depend on the tree being vetted.`,
		Run: runFSM,
	}
}

// fsmState is one enum constant.
type fsmState struct {
	Name  string
	Value int64
	Pos   token.Pos
}

// fsmEdge is one extracted transition.
type fsmEdge struct {
	From    map[string]bool // possible source states; all states = unguarded
	To      string
	Trigger string // dispatcher arm kind, or the assigning function
	Pos     token.Pos
}

// fsmMachine is the extraction for one FSMStates policy entry.
type fsmMachine struct {
	TypeKey  string // "internal/via.ViState"
	FieldKey string // "internal/via.(VI).state"
	States   []fsmState
	Edges    []fsmEdge
	TypePos  token.Pos
}

func runFSM(m *Module, p *Policy) []Diagnostic {
	var ds []Diagnostic
	for _, typeKey := range sortedKeys(p.FSMStates) {
		mach, err := extractFSM(m, p, typeKey, p.FSMStates[typeKey])
		if err != "" {
			ds = append(ds, Diagnostic{Pos: m.Position(token.NoPos), Rule: "fsm", Message: err})
			continue
		}
		ds = append(ds, checkFSM(m, mach)...)
	}
	return ds
}

// extractFSM builds the machine for one enum type + owner field.
func extractFSM(m *Module, p *Policy, typeKey, fieldKey string) (*fsmMachine, string) {
	obj := scopeLookup(m, typeKey)
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil, fmt.Sprintf("Policy.FSMStates[%q] names no type in the module", typeKey)
	}
	mach := &fsmMachine{TypeKey: typeKey, FieldKey: fieldKey, TypePos: tn.Pos()}

	// States: package-level constants of the enum type, by value.
	scope := tn.Pkg().Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), tn.Type()) {
			continue
		}
		v, ok := constant.Int64Val(c.Val())
		if !ok {
			continue
		}
		mach.States = append(mach.States, fsmState{Name: c.Name(), Value: v, Pos: c.Pos()})
	}
	sort.Slice(mach.States, func(i, j int) bool {
		if mach.States[i].Value != mach.States[j].Value {
			return mach.States[i].Value < mach.States[j].Value
		}
		return mach.States[i].Name < mach.States[j].Name
	})
	if len(mach.States) == 0 {
		return nil, fmt.Sprintf("Policy.FSMStates[%q] has no constants of the enum type", typeKey)
	}

	stateByName := map[string]bool{}
	for _, s := range mach.States {
		stateByName[s.Name] = true
	}
	fieldVar := fsmResolveField(m, fieldKey)
	if fieldVar == nil {
		return nil, fmt.Sprintf("Policy.FSMStates[%q]: field %q does not resolve", typeKey, fieldKey)
	}

	// Transitions: every assignment to the owner field, module-wide.
	ip := m.Interproc()
	for _, key := range ip.Keys {
		f := ip.Funcs[key]
		info := f.Pkg.Info
		for _, u := range f.Units {
			inspectPath(u.body, func(n ast.Node, path []ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok {
					return true
				}
				for i, l := range as.Lhs {
					sel, ok := ast.Unparen(l).(*ast.SelectorExpr)
					if !ok || info.Uses[sel.Sel] != fieldVar {
						continue
					}
					var rhs ast.Expr
					if len(as.Rhs) == len(as.Lhs) {
						rhs = as.Rhs[i]
					} else if len(as.Rhs) == 1 {
						rhs = as.Rhs[0]
					}
					to := fsmConstName(info, rhs, stateByName)
					if to == "" {
						continue // non-constant target: outside the machine
					}
					from := fsmFromSet(info, path, as, sel, rootVar(info, sel.X), stateByName)
					trigger := fsmTrigger(p, path, key)
					mach.Edges = append(mach.Edges, fsmEdge{From: from, To: to, Trigger: trigger, Pos: as.Pos()})
				}
				return true
			})
		}
	}
	sort.Slice(mach.Edges, func(i, j int) bool { return mach.Edges[i].Pos < mach.Edges[j].Pos })
	return mach, ""
}

// fsmResolveField returns the *types.Var for "rel/pkg.(Owner).field".
func fsmResolveField(m *Module, key string) *types.Var {
	open := strings.Index(key, ".(")
	end := strings.Index(key, ").")
	if open < 0 || end < open {
		return nil
	}
	pkg := lookupRel(m, key[:open])
	if pkg == nil || pkg.Types == nil {
		return nil
	}
	owner, field := key[open+2:end], key[end+2:]
	tn, ok := pkg.Types.Scope().Lookup(owner).(*types.TypeName)
	if !ok {
		return nil
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == field {
			return st.Field(i)
		}
	}
	return nil
}

// fsmConstName resolves an expression to a state-constant name.
func fsmConstName(info *types.Info, e ast.Expr, states map[string]bool) string {
	if e == nil {
		return ""
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if states[e.Name] {
			return e.Name
		}
	case *ast.SelectorExpr:
		if states[e.Sel.Name] {
			return e.Sel.Name
		}
	}
	return ""
}

// fsmFromSet infers the possible source states of one assignment from the
// guards dominating it: enclosing if conditions and switch cases over the
// same field of the same base object, and early-return guards among the
// lexically preceding statements of every enclosing block.
func fsmFromSet(info *types.Info, path []ast.Node, site ast.Node, fieldSel *ast.SelectorExpr, baseObj types.Object, states map[string]bool) map[string]bool {
	from := map[string]bool{}
	for s := range states {
		from[s] = true
	}
	intersect := func(only string) {
		for s := range from {
			if s != only {
				delete(from, s)
			}
		}
	}
	// sameField: a guard expression reads the same state field of the same
	// variable the assignment writes.
	sameField := func(e ast.Expr) bool {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok || info.Uses[sel.Sel] != info.Uses[fieldSel.Sel] {
			return false
		}
		if baseObj == nil {
			return true
		}
		return rootVar(info, sel.X) == baseObj
	}
	applyCompare := func(e ast.Expr, negate bool) {
		be, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return
		}
		var state string
		switch {
		case sameField(be.X):
			state = fsmConstName(info, be.Y, states)
		case sameField(be.Y):
			state = fsmConstName(info, be.X, states)
		}
		if state == "" {
			return
		}
		eq := be.Op == token.EQL
		if negate {
			eq = !eq
		}
		if eq {
			intersect(state)
		} else {
			delete(from, state)
		}
	}
	// Conjuncts of an enclosing condition all hold on the then-branch.
	applyCond := func(e ast.Expr, negate bool) {
		if negate {
			applyCompare(e, true)
			return
		}
		var walk func(ast.Expr)
		walk = func(e ast.Expr) {
			if be, ok := ast.Unparen(e).(*ast.BinaryExpr); ok && be.Op == token.LAND {
				walk(be.X)
				walk(be.Y)
				return
			}
			applyCompare(e, false)
		}
		walk(e)
	}

	// Enclosing guards: walk ancestors of the assignment. chain[i-1] is the
	// parent of chain[i].
	chain := append(path[:len(path):len(path)], site)
	for i := len(chain) - 1; i > 0; i-- {
		n := chain[i]
		switch ps := chain[i-1].(type) {
		case *ast.IfStmt:
			if fsmInStmt(ps.Body, n) {
				applyCond(ps.Cond, false)
			}
		case *ast.CaseClause:
			// A case of a switch over the field constrains to its constants
			// (a clause sits in the switch's body block).
			if i >= 3 {
				if swStmt, ok := chain[i-3].(*ast.SwitchStmt); ok && swStmt.Tag != nil && sameField(swStmt.Tag) && len(ps.List) > 0 {
					keep := map[string]bool{}
					for _, e := range ps.List {
						if s := fsmConstName(info, e, states); s != "" {
							keep[s] = true
						}
					}
					if len(keep) > 0 {
						for s := range from {
							if !keep[s] {
								delete(from, s)
							}
						}
					}
				}
			}
		}
	}

	// Early-return guards: in every enclosing block, a preceding
	// "if <field cmp Const> { return }" constrains everything after it.
	for i := len(chain) - 1; i > 0; i-- {
		n := chain[i]
		blk, ok := chain[i-1].(*ast.BlockStmt)
		if !ok {
			continue
		}
		for _, st := range blk.List {
			if st == n || st.Pos() >= n.Pos() {
				break
			}
			ifs, ok := st.(*ast.IfStmt)
			if !ok || ifs.Else != nil || !fsmAlwaysExits(ifs.Body) {
				continue
			}
			applyCond(ifs.Cond, true)
		}
	}
	return from
}

// fsmInStmt reports whether n is (or is inside) s.
func fsmInStmt(s ast.Stmt, n ast.Node) bool {
	return s != nil && n != nil && s.Pos() <= n.Pos() && n.End() <= s.End()
}

// fsmAlwaysExits reports whether a guard body unconditionally leaves the
// function (return, or a terminal call).
func fsmAlwaysExits(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		return isTerminalCall(last.X)
	}
	return false
}

// fsmTrigger labels an edge: inside a protocol dispatcher it is the wire
// kind of the enclosing case clause, otherwise the assigning function.
func fsmTrigger(p *Policy, path []ast.Node, key string) string {
	dispatcher := slices.ContainsFunc(p.WireKinds, func(wk WireKind) bool { return wk.Dispatch == key })
	for i := len(path) - 1; i >= 0 && dispatcher; i-- {
		cc, ok := path[i].(*ast.CaseClause)
		if !ok || len(cc.List) == 0 {
			continue
		}
		if id, ok := ast.Unparen(cc.List[0]).(*ast.Ident); ok {
			return id.Name
		}
		if sel, ok := ast.Unparen(cc.List[0]).(*ast.SelectorExpr); ok {
			return sel.Sel.Name
		}
	}
	if dot := strings.LastIndex(key, "."); dot >= 0 {
		return key[dot+1:]
	}
	return key
}

// checkFSM reports the states no transition enters.
func checkFSM(m *Module, mach *fsmMachine) []Diagnostic {
	var ds []Diagnostic
	entered := map[string]bool{}
	for _, e := range mach.Edges {
		entered[e.To] = true
	}
	for _, s := range mach.States {
		if s.Value == 0 || entered[s.Name] {
			continue // the zero value is the initial state
		}
		ds = append(ds, Diagnostic{
			Pos:  m.Position(s.Pos),
			Rule: "fsm",
			Message: fmt.Sprintf("state %s of %s is never entered: no assignment to %s targets it — wire a transition or delete the state",
				s.Name, mach.TypeKey, mach.FieldKey),
		})
	}

	return ds
}

// FSMDot renders every extracted machine as deterministic Graphviz DOT —
// the generated replacement for a hand-drawn lifecycle diagram. Transitions
// possible from every state (or every state but the target) collapse onto
// an "any" pseudo-node.
func FSMDot(m *Module, p *Policy) string {
	var b strings.Builder
	b.WriteString("// Generated by viampi-vet -fsm-dot; do not edit.\n")
	b.WriteString("// Regenerate: go run ./cmd/viampi-vet -root . -fsm-dot > docs/connection-fsm.dot\n")
	for _, typeKey := range sortedKeys(p.FSMStates) {
		mach, errMsg := extractFSM(m, p, typeKey, p.FSMStates[typeKey])
		if errMsg != "" {
			fmt.Fprintf(&b, "// %s: %s\n", typeKey, errMsg)
			continue
		}
		name := typeKey
		if dot := strings.LastIndex(name, "."); dot >= 0 {
			name = name[dot+1:]
		}
		fmt.Fprintf(&b, "digraph %s {\n", name)
		b.WriteString("  rankdir=LR;\n")
		b.WriteString("  node [shape=ellipse];\n")
		for _, s := range mach.States {
			attr := ""
			if s.Value == 0 {
				attr = " [peripheries=2]" // initial state
			}
			fmt.Fprintf(&b, "  %q%s;\n", s.Name, attr)
		}
		// Collapse and dedupe: one line per (from, to, trigger).
		type dotEdge struct{ from, to, label string }
		seen := map[dotEdge]bool{}
		var edges []dotEdge
		for _, e := range mach.Edges {
			all := true
			for _, s := range mach.States {
				if !e.From[s.Name] && s.Name != e.To {
					all = false
					break
				}
			}
			var froms []string
			if all {
				froms = []string{"any"}
			} else {
				for _, s := range mach.States {
					if e.From[s.Name] {
						froms = append(froms, s.Name)
					}
				}
			}
			for _, f := range froms {
				de := dotEdge{from: f, to: e.To, label: e.Trigger}
				if !seen[de] {
					seen[de] = true
					edges = append(edges, de)
				}
			}
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].from != edges[j].from {
				return edges[i].from < edges[j].from
			}
			if edges[i].to != edges[j].to {
				return edges[i].to < edges[j].to
			}
			return edges[i].label < edges[j].label
		})
		hasAny := false
		for _, e := range edges {
			if e.from == "any" {
				hasAny = true
			}
		}
		if hasAny {
			b.WriteString("  \"any\" [shape=plaintext];\n")
		}
		for _, e := range edges {
			fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", e.from, e.to, e.label)
		}
		b.WriteString("}\n")
	}
	return b.String()
}
