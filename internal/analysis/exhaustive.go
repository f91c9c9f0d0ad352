package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ExhaustiveAnalyzer flags switches over closed constant sets that fail to
// handle every member. Two kinds of set are recognized, both discovered from
// the source rather than hand-listed so newly added members automatically
// invalidate stale switches:
//
//   - enum types: a named module type with ≥ 2 package-level constants
//     declared in an iota const block (via.ViState, via.Status, obs.Kind,
//     obs.Phase, mpi.SendMode, tcpvia.ViState);
//   - tagged byte fields: a struct field the policy maps to the anchor
//     constant of its wire-code block (via.(wireMsg).kind, mpi.(hdr).kind),
//     whose member set is every constant in that block.
//
// An explicit default normally satisfies the rule; functions listed in
// Policy.ExhaustiveStrict must still name every member, because their
// default is a fallback ("unknown"), not a handler.
func ExhaustiveAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "exhaustive",
		Doc:  "switches over closed constant sets must handle every member",
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
member must be named anyway. Sentinel constants that are not members (a
NumPhases count) are removed from a set under
Policy.Exceptions["exhaustive"].`,
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

func runExhaustive(m *Module, p *Policy) []Diagnostic {
	enums, blocks := discoverConstSets(m, p)
	var ds []Diagnostic
	for _, pkg := range m.Pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || sw.Tag == nil {
					return true
				}
				set := setForTag(m, p, pkg, sw.Tag, enums, blocks)
				if set == nil {
					return true
				}
				covered, hasDefault, constant := caseValues(pkg, sw)
				if !constant {
					return true // a non-constant case expr: not a closed dispatch
				}
				missing := set.missingMembers(covered)
				if len(missing) == 0 {
					return true
				}
				fname := enclosingFuncName(pkg, file, sw.Pos())
				if hasDefault {
					if _, strict := p.ExhaustiveStrict[fname]; !strict {
						return true
					}
					ds = append(ds, Diagnostic{
						Pos:  m.Position(sw.Pos()),
						Rule: "exhaustive",
						Message: fmt.Sprintf("switch over %s is missing cases %s; %s is in ExhaustiveStrict, so its default is a fallback, not a handler — name every member",
							set.name, strings.Join(missing, ", "), fname),
					})
					return true
				}
				ds = append(ds, Diagnostic{
					Pos:  m.Position(sw.Pos()),
					Rule: "exhaustive",
					Message: fmt.Sprintf("switch over %s is missing cases %s; handle every member or add an explicit default (the set is every constant in the %s block, so new members flag stale switches)",
						set.name, strings.Join(missing, ", "), set.name),
				})
				return true
			})
		}
	}
	return ds
}

// discoverConstSets scans every const block in the module once, returning
// enum sets keyed by qualified type name ("internal/via.ViState") and whole
// blocks keyed by each member's qualified name (for Policy.TagFields
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
// constants like the wire byte codes are covered via TagFields instead).
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

// setForTag resolves the closed set a switch tag ranges over, or nil.
func setForTag(m *Module, p *Policy, pkg *Package, tag ast.Expr, enums map[string]*enumSet, blocks map[string][]*types.Const) *enumSet {
	tag = ast.Unparen(tag)
	// Tagged byte field (policy-declared): the member set is the anchor's
	// whole const block.
	if se, ok := tag.(*ast.SelectorExpr); ok {
		if field := fieldQualified(m, pkg, se); field != "" {
			if anchor, ok := p.TagFields[field]; ok {
				if group := blocks[anchor]; len(group) > 0 {
					return &enumSet{name: field, members: group}
				}
			}
		}
	}
	// Named enum type.
	t := pkg.Info.TypeOf(tag)
	if t == nil {
		return nil
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	qual := relQualified(m.Path, named.Obj().Pkg().Path()) + "." + named.Obj().Name()
	return enums[qual]
}

// fieldQualified renders a selector that resolves to a struct field as
// "rel/pkg.(Owner).field", or "" when se is not a field access.
func fieldQualified(m *Module, pkg *Package, se *ast.SelectorExpr) string {
	sel := pkg.Info.Selections[se]
	if sel == nil || sel.Kind() != types.FieldVal {
		return ""
	}
	recv := sel.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return relQualified(m.Path, named.Obj().Pkg().Path()) + ".(" + named.Obj().Name() + ")." + se.Sel.Name
}

// caseValues collects the constant values named by the switch's cases.
// constant is false when any case expression is not a compile-time constant
// (the switch is then not a closed dispatch and is skipped).
func caseValues(pkg *Package, sw *ast.SwitchStmt) (covered map[string]bool, hasDefault, constant bool) {
	covered = map[string]bool{}
	constant = true
	for _, c := range sw.Body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
			continue
		}
		for _, e := range cc.List {
			tv, ok := pkg.Info.Types[e]
			if !ok || tv.Value == nil {
				constant = false
				return
			}
			covered[tv.Value.ExactString()] = true
		}
	}
	return
}
