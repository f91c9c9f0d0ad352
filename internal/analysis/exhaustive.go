package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ExhaustiveAnalyzer flags switches over closed constant sets that fail to
// handle every member, and — for the wire kinds — senders and dispatcher arms
// that disagree. Two kinds of set are recognized, both discovered from the
// source rather than hand-listed so newly added members automatically
// invalidate stale switches:
//
//   - enum types: a named module type with ≥ 2 package-level constants
//     declared in an iota const block (via.ViState, via.Status, obs.Kind,
//     obs.Phase, mpi.SendMode, tcpvia.ViState);
//   - wire kinds: a struct field Policy.WireKinds maps to the anchor constant
//     of its wire-code block (via.(wireMsg).kind, mpi.(hdr).kind), whose
//     member set is every constant in that block.
//
// An explicit default normally satisfies the rule; functions listed in
// Policy.ExhaustiveStrict must still name every member, because their
// default is a fallback ("unknown"), not a handler.
func ExhaustiveAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "exhaustive",
		Doc:  "switches over closed constant sets handle every member; every wire kind sent is dispatched and every dispatch arm has a sender",
		Explain: `docs/ARCHITECTURE.md, "Enforced invariants": the on-demand protocol is a
distributed state machine per VI — connection states, descriptor statuses,
wire packet kinds and observability event kinds are all closed sets, and the
code that dispatches on them is scattered across layers. PR 3 found the decay
mode in the wild: kindConnNack and StatusDisconnected were added to the wire
protocol, and switches written before them silently fell through, leaving
handshake state half-reset and teardown treated as abort. This rule discovers
each set from its const block (go/types), so adding a member flags every
switch that has not caught up; a switch is exhaustive when it names every
member or carries an explicit default — except in Policy.ExhaustiveStrict
functions (String methods, the Perfetto event mapper), where the default is
an "unknown" fallback and reaching it is silent data corruption, so every
member must be named anyway. For the wire kinds — ConnReq/Ack/Nack/Disc/
Data/Rdma/Oob on the VIA port, Eager/Rts/Cts/Fin/Credit and the BYE/BYE_ACK/
BYE_NACK quiescence handshake on the MPI channel — covering the const block
is half of conformance: each PR 3 teardown bug was a kind constructed on one
side of the wire that the other side's switch did not consume. So the same
walk collects the messages actually built (composite literals and assignments
writing a constant into a Policy.WireKinds field) and checks them against the
field's registered dispatcher: a sent kind with no arm is an unhandled
message (dropped or misrouted at the receiver, default or no default); an arm
whose kind nothing sends is dead protocol surface that hides a missing
sender. Constants that are not members — a NumPhases count, a deliberately
receive-only kind — are removed from a set under
Policy.Exceptions["exhaustive"], with the reason.`,
		Subject: subjConst,
		Run:     runExhaustive,
	}
}

// enumSet is one closed constant set.
type enumSet struct {
	name    string // what diagnostics call it
	members []*types.Const
}

// missingMembers returns declaration-ordered names of members whose values
// are not covered, deduplicating aliases by constant value.
func (s *enumSet) missingMembers(covered map[string]bool) []string {
	var missing []string
	seenVal := map[string]bool{}
	for _, c := range s.members {
		v := c.Val().ExactString()
		if seenVal[v] {
			continue
		}
		seenVal[v] = true
		if !covered[v] {
			missing = append(missing, c.Name())
		}
	}
	return missing
}

// wireSend is one site constructing a wire message with a constant kind.
type wireSend struct {
	val  string // constant value (ExactString)
	node ast.Node
	fn   string // enclosing function
}

// wireFacts is what the walk learns about one Policy.WireKinds field.
type wireFacts struct {
	sends      []wireSend
	dispatched bool                // the dispatcher switches over the field
	arms       map[string]ast.Node // case value -> first arm naming it, over every such switch
}

// exhaustiveRun is one pass of the rule over the module.
type exhaustiveRun struct {
	m      *Module
	p      *Policy
	enums  map[string]*enumSet       // by qualified type name
	blocks map[string][]*types.Const // by each member's qualified name
	wire   map[string]*wireFacts     // by Policy.WireKinds field
	ds     []Diagnostic
}

func (x *exhaustiveRun) report(at ast.Node, format string, args ...any) {
	x.ds = append(x.ds, Diagnostic{Pos: x.m.Position(at.Pos()), Rule: "exhaustive", Message: fmt.Sprintf(format, args...)})
}

func runExhaustive(m *Module, p *Policy) []Diagnostic {
	x := &exhaustiveRun{m: m, p: p, wire: map[string]*wireFacts{}}
	x.enums, x.blocks = discoverConstSets(m, p)
	for _, wk := range p.WireKinds {
		x.wire[wk.Field] = &wireFacts{arms: map[string]ast.Node{}}
	}
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			if pkg.Info != nil {
				x.walk(pkg, file)
			}
		}
	}
	for _, wk := range p.WireKinds {
		x.checkWireKind(wk)
	}
	return x.ds
}

// walk is the one pass over a file: every switch with a tag is checked, and
// every constant written into a wire-kind field — a composite-literal
// element, keyed or positional, or a plain assignment — is filed as a send of
// that kind. Non-constant writes (decode paths, forwarding a received kind)
// are not sends of a specific kind.
func (x *exhaustiveRun) walk(pkg *Package, file *ast.File) {
	send := func(field string, value ast.Expr) {
		if tv := pkg.Info.Types[value]; x.wire[field] != nil && tv.Value != nil {
			x.wire[field].sends = append(x.wire[field].sends, wireSend{tv.Value.ExactString(), value, enclosingFuncName(pkg, file, value.Pos())})
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SwitchStmt:
			if n.Tag != nil {
				x.checkSwitch(pkg, file, n)
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if se, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && len(n.Lhs) == len(n.Rhs) {
					send(fieldQualified(x.m, pkg, se), n.Rhs[i])
				}
			}
		case *ast.CompositeLit:
			lt := pkg.Info.TypeOf(n)
			if ptr, ok := lt.(*types.Pointer); ok {
				lt = ptr.Elem() // the elided &T of []*T{{...}}
			}
			if lt == nil {
				return true
			}
			st, _ := lt.Underlying().(*types.Struct)
			for i, elt := range n.Elts {
				if kv, keyed := elt.(*ast.KeyValueExpr); !keyed {
					if st != nil && i < st.NumFields() {
						send(fieldOfType(x.m, lt, st.Field(i).Name()), elt)
					}
				} else if key, ok := kv.Key.(*ast.Ident); ok {
					send(fieldOfType(x.m, lt, key.Name), kv.Value)
				}
			}
		}
		return true
	})
}

// checkSwitch holds one switch against the set its tag ranges over, and files
// its arms when it is a wire dispatcher's.
func (x *exhaustiveRun) checkSwitch(pkg *Package, file *ast.File, sw *ast.SwitchStmt) {
	set, field := x.setForTag(pkg, sw.Tag)
	if set == nil {
		return
	}
	fname := enclosingFuncName(pkg, file, sw.Pos())
	var facts *wireFacts
	for _, wk := range x.p.WireKinds {
		if wk.Field == field && wk.Dispatch == fname {
			facts = x.wire[field]
			facts.dispatched = true
		}
	}
	// The constant values the cases name. A case that is no compile-time
	// constant means the switch is not a closed dispatch.
	covered, hasDefault, constant := map[string]bool{}, false, true
	for _, c := range sw.Body.List {
		cc := c.(*ast.CaseClause)
		hasDefault = hasDefault || cc.List == nil
		for _, e := range cc.List {
			tv := pkg.Info.Types[e]
			if tv.Value == nil {
				constant = false
				continue
			}
			v := tv.Value.ExactString()
			covered[v] = true
			if facts != nil && facts.arms[v] == nil {
				facts.arms[v] = e
			}
		}
	}
	missing := set.missingMembers(covered)
	_, strict := x.p.ExhaustiveStrict[fname]
	switch {
	case !constant || len(missing) == 0 || hasDefault && !strict:
	case hasDefault:
		x.report(sw, "switch over %s is missing cases %s; %s is in ExhaustiveStrict, so its default is a fallback, not a handler — name every member",
			set.name, strings.Join(missing, ", "), fname)
	default:
		x.report(sw, "switch over %s is missing cases %s; handle every member or add an explicit default (the set is every constant in the %s block, so new members flag stale switches)",
			set.name, strings.Join(missing, ", "), set.name)
	}
}

// checkWireKind is the sender half: the kinds the module sends against the
// arms of the field's dispatcher, in both directions.
func (x *exhaustiveRun) checkWireKind(wk WireKind) {
	f, group, facts := x.m.Interproc().Funcs[wk.Dispatch], x.blocks[wk.Anchor], x.wire[wk.Field]
	if f == nil || len(group) == 0 {
		return // the stale-policy sweep reports the dangling entry
	}
	if !facts.dispatched {
		x.report(f.Decl, "%s is registered as the dispatcher for %s in Policy.WireKinds, but contains no switch over that field", wk.Dispatch, wk.Field)
		return
	}
	name := map[string]string{} // constant value -> first declared name
	for _, c := range group {
		if v := c.Val().ExactString(); name[v] == "" {
			name[v] = c.Name()
		}
	}
	// Sent but unhandled: the receiver drops or misroutes the message.
	sent := map[string]bool{}
	for _, s := range facts.sends {
		if facts.arms[s.val] == nil && !sent[s.val] {
			kind := name[s.val]
			if kind == "" {
				kind = s.val
			}
			x.report(s.node, "wire kind %s is sent by %s but has no handler arm in dispatcher %s; the receiver silently drops the message — add the arm (and its state transition) or remove the sender",
				kind, s.fn, wk.Dispatch)
		}
		sent[s.val] = true
	}
	// Handled but never sent: a dead arm. (A receive-only kind excused under
	// Policy.Exceptions["exhaustive"] is not in group.)
	for _, c := range group {
		v := c.Val().ExactString()
		if arm := facts.arms[v]; arm != nil && !sent[v] && name[v] == c.Name() {
			x.report(arm, "dispatcher %s has an arm for %s but nothing in the module sends it; a dead arm hides a missing sender — remove it, or declare the kind receive-only under Policy.Exceptions[\"exhaustive\"]",
				wk.Dispatch, c.Name())
		}
	}
}

// discoverConstSets scans every const block in the module once, returning
// enum sets keyed by qualified type name ("internal/via.ViState") and whole
// blocks keyed by each member's qualified name (for Policy.WireKinds
// anchors).
func discoverConstSets(m *Module, p *Policy) (map[string]*enumSet, map[string][]*types.Const) {
	enums := map[string]*enumSet{}
	blocks := map[string][]*types.Const{}
	for _, pkg := range m.Pkgs {
		if pkg.Info == nil || pkg.Types == nil {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST || !usesIota(gd) {
					continue
				}
				var group []*types.Const
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for _, name := range vs.Names {
						c, ok := pkg.Info.Defs[name].(*types.Const)
						if !ok || name.Name == "_" {
							continue
						}
						qual := pkg.Rel + "." + c.Name()
						if p.excused("exhaustive", qual) {
							continue // a sentinel (count, limit), not a member
						}
						group = append(group, c)
					}
				}
				for _, c := range group {
					blocks[pkg.Rel+"."+c.Name()] = group
				}
				registerEnumMembers(m, pkg, enums, group)
			}
		}
	}
	for name, set := range enums {
		if len(set.members) < 2 {
			delete(enums, name)
		}
	}
	return enums, blocks
}

// registerEnumMembers files constants under their named type when that type
// is declared in the same module package (the enum idiom; untyped or basic
// constants like the wire byte codes are covered via WireKinds instead).
func registerEnumMembers(m *Module, pkg *Package, enums map[string]*enumSet, group []*types.Const) {
	for _, c := range group {
		named, ok := c.Type().(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Pkg() != pkg.Types {
			continue
		}
		basic, ok := named.Underlying().(*types.Basic)
		if !ok || basic.Info()&types.IsInteger == 0 {
			continue
		}
		qual := pkg.Rel + "." + obj.Name()
		set := enums[qual]
		if set == nil {
			set = &enumSet{name: qual}
			enums[qual] = set
		}
		set.members = append(set.members, c)
	}
}

// usesIota reports whether any value expression in the const decl mentions
// iota — the enum idiom marker. It distinguishes closed sets from unit
// constants (simnet.Microsecond and friends), which share a named type but
// are not a dispatch domain.
func usesIota(gd *ast.GenDecl) bool {
	found := false
	for _, spec := range gd.Specs {
		for _, v := range spec.(*ast.ValueSpec).Values {
			ast.Inspect(v, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
					found = true
				}
				return !found
			})
		}
	}
	return found
}

// setForTag resolves the closed set a switch tag ranges over, or nil; field is
// the tag's qualified struct field when it is one.
func (x *exhaustiveRun) setForTag(pkg *Package, tag ast.Expr) (set *enumSet, field string) {
	tag = ast.Unparen(tag)
	// Wire-kind field (policy-declared): the member set is the anchor's whole
	// const block.
	if se, ok := tag.(*ast.SelectorExpr); ok {
		field = fieldQualified(x.m, pkg, se)
		for _, wk := range x.p.WireKinds {
			if group := x.blocks[wk.Anchor]; wk.Field == field && len(group) > 0 {
				return &enumSet{name: field, members: group}, field
			}
		}
	}
	// Named enum type.
	named, ok := pkg.Info.TypeOf(tag).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil, field
	}
	return x.enums[relQualified(x.m.Path, named.Obj().Pkg().Path())+"."+named.Obj().Name()], field
}

// fieldQualified renders a selector that resolves to a struct field as
// "rel/pkg.(Owner).field", or "" when se is not a field access.
func fieldQualified(m *Module, pkg *Package, se *ast.SelectorExpr) string {
	sel := pkg.Info.Selections[se]
	if sel == nil || sel.Kind() != types.FieldVal {
		return ""
	}
	return fieldOfType(m, sel.Recv(), se.Sel.Name)
}

// fieldOfType renders the field called name of named struct type t (or a
// pointer to one) as "rel/pkg.(Owner).name"; "" for an unnamed type.
func fieldOfType(m *Module, t types.Type, name string) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return relQualified(m.Path, named.Obj().Pkg().Path()) + ".(" + named.Obj().Name() + ")." + name
}
