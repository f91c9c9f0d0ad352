package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ExhaustiveAnalyzer flags switches over closed constant sets that fail to
// handle every member. A set is an enum type: a named module integer type with
// ≥ 2 package-level constants declared in an iota const block (via.ViState,
// via.Status, via.wireKind, mpi.pktKind, obs.Kind, obs.Phase, mpi.SendMode,
// tcpvia.ViState). Sets are discovered from the source rather than
// hand-listed, so a newly added member flags every stale switch.
//
// An explicit default normally satisfies the rule; functions listed in
// Policy.ExhaustiveStrict must still name every member, because their
// default is a fallback ("unknown"), not a handler.
func ExhaustiveAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "exhaustive",
		Doc:  "switches over closed constant sets handle every member",
		Explain: `docs/ARCHITECTURE.md, "Enforced invariants": the on-demand protocol is a
distributed state machine per VI — connection states, descriptor statuses,
wire frame and packet kinds and observability event kinds are all closed
sets, and the code that dispatches on them is scattered across layers. The
decay mode has happened here: kindConnNack and StatusDisconnected were added
to the wire protocol after switches over them were written, and those
switches silently fell through, leaving handshake state half-reset and
teardown treated as abort. This rule discovers each set from its const
block (go/types): every named integer type with an iota block of two or more
members. Adding a member flags every switch that has not caught up; a switch
is exhaustive when it names every member or carries an explicit default —
except in Policy.ExhaustiveStrict functions, whose default is a fallback and
not a handler, so every member must be named anyway. Those are the String
methods and the Perfetto event mapper, where reaching the default is an
"unknown" label that silently corrupts a report, and mpi's packet dispatcher
(Rank.handlePacket), whose default fails the run on a byte that is no kind.
The VIA frame dispatcher (Port.dispatch) has no default at all. So a frame or
packet kind added without its arm is flagged at the switch that must handle
it, whether or not anything sends it yet. Constants that are not members — a
NumPhases count — are removed from a set under Policy.Exceptions["exhaustive"],
with the reason. A label case cut from via.(Status).String,
via.(ViState).String, mpi.(SendMode).String, tcpvia.(ViState).String or
capture.(Clock).String also fails that type's table test; what only this
rule sees is a member added to a set before any test drives it, flagged at
every switch that has not caught up.`,
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

// exhaustiveRun is one pass of the rule over the module.
type exhaustiveRun struct {
	m     *Module
	p     *Policy
	enums map[string]*enumSet // by qualified type name
	ds    []Diagnostic
}

func (x *exhaustiveRun) report(at ast.Node, format string, args ...any) {
	x.ds = append(x.ds, Diagnostic{Pos: x.m.Position(at.Pos()), Rule: "exhaustive", Message: fmt.Sprintf(format, args...)})
}

func runExhaustive(m *Module, p *Policy) []Diagnostic {
	x := &exhaustiveRun{m: m, p: p, enums: discoverEnums(m, p)}
	for _, pkg := range m.Pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if sw, ok := n.(*ast.SwitchStmt); ok && sw.Tag != nil {
					x.checkSwitch(pkg, file, sw)
				}
				return true
			})
		}
	}
	return x.ds
}

// checkSwitch holds one switch against the enum its tag ranges over.
func (x *exhaustiveRun) checkSwitch(pkg *Package, file *ast.File, sw *ast.SwitchStmt) {
	named, ok := pkg.Info.TypeOf(sw.Tag).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	set := x.enums[relQualified(x.m.Path, named.Obj().Pkg().Path())+"."+named.Obj().Name()]
	if set == nil {
		return
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
			covered[tv.Value.ExactString()] = true
		}
	}
	missing := set.missingMembers(covered)
	fname := enclosingFuncName(pkg, file, sw.Pos())
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

// discoverEnums scans every const block in the module once, returning the
// enum sets keyed by qualified type name ("internal/via.ViState").
func discoverEnums(m *Module, p *Policy) map[string]*enumSet {
	enums := map[string]*enumSet{}
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
						if p.excused("exhaustive", pkg.Rel+"."+c.Name()) {
							continue // a sentinel (count, limit), not a member
						}
						group = append(group, c)
					}
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
	return enums
}

// registerEnumMembers files constants under their named type when that type
// is declared in the same module package (the enum idiom).
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
