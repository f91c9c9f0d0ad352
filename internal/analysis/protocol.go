package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// ProtocolAnalyzer enforces closed send/recv conformance on the wire
// protocol: every `kind` constant the module constructs a wire message with
// must reach a handler arm in every policy-declared dispatch switch over
// that kind field, and every arm must correspond to a kind something
// actually sends. It is the whole-program complement of exhaustive: that
// rule proves a dispatch switch covers the declared constant set; this one
// proves the constant set, the senders, and the dispatchers agree.
func ProtocolAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "protocol",
		Doc:  "every wire kind sent must be dispatched, and every dispatch arm must have a sender",
		Explain: `docs/ARCHITECTURE.md, "Enforced invariants": the on-demand connection
manager is a distributed state machine driven entirely by wire kinds —
ConnReq/Ack/Nack/Disc/Data/Rdma/Oob on the VIA port, Eager/Rts/Cts/Fin/
Credit and the BYE/BYE_ACK/BYE_NACK quiescence handshake on the MPI
channel. Each PR 3 teardown bug was a conformance hole between a sender
and a dispatcher: a kind constructed on one side of the wire that the
other side's switch did not (correctly) consume. exhaustive pins each
switch against the const block; this rule closes the remaining gap by
scanning the whole module for the messages actually built (composite
literals and assignments writing a constant into a Policy.TagFields kind
field) and checking them against every dispatcher registered in
Policy.ProtocolDispatch: a sent kind with no arm is an unhandled message
(dropped or misrouted at the receiver); an arm whose kind nothing sends is
dead protocol surface that hides a missing sender. Deliberately
receive-only kinds are declared under Policy.Exceptions["protocol"] with
the reason no sender exists in this module.`,
		Subject: subjConst,
		Run:     runProtocol,
	}
}

// protoSend is one site constructing a wire message with a constant kind.
type protoSend struct {
	val  string // constant value (ExactString)
	node ast.Node
	fn   string // enclosing function
}

func runProtocol(m *Module, p *Policy) []Diagnostic {
	if len(p.ProtocolDispatch) == 0 {
		return nil
	}
	_, blocks := discoverConstSets(m, p)

	watched := map[string]bool{}
	for _, fieldKey := range p.ProtocolDispatch {
		watched[fieldKey] = true
	}
	sends := collectProtoSends(m, watched)

	var ds []Diagnostic
	var dispKeys []string
	for k := range p.ProtocolDispatch {
		dispKeys = append(dispKeys, k)
	}
	sort.Strings(dispKeys)
	ip := m.Interproc()
	for _, dispKey := range dispKeys {
		fieldKey := p.ProtocolDispatch[dispKey]
		f := ip.Funcs[dispKey]
		if f == nil {
			continue // the stale-policy sweep reports the dangling entry
		}
		group := blocks[p.TagFields[fieldKey]]
		if len(group) == 0 {
			continue
		}
		covered, arms, found := dispatchArms(m, f, fieldKey)
		if !found {
			ds = append(ds, Diagnostic{
				Pos:  m.Position(f.Decl.Pos()),
				Rule: "protocol",
				Message: fmt.Sprintf("%s is registered as the dispatcher for %s in Policy.ProtocolDispatch, but contains no switch over that field",
					dispKey, fieldKey),
			})
			continue
		}

		// Sent but unhandled: the receiver drops or misroutes the message.
		reportedVals := map[string]bool{}
		for _, s := range sends[fieldKey] {
			if covered[s.val] || reportedVals[s.val] {
				continue
			}
			reportedVals[s.val] = true
			ds = append(ds, Diagnostic{
				Pos:  m.Position(s.node.Pos()),
				Rule: "protocol",
				Message: fmt.Sprintf("wire kind %s is sent by %s but has no handler arm in dispatcher %s; the receiver silently drops the message — add the arm (and its state transition) or remove the sender",
					protoKindName(m, group, s.val), s.fn, dispKey),
			})
		}

		// Handled but never sent: dead protocol arm, unless declared
		// receive-only.
		sentVals := map[string]bool{}
		for _, s := range sends[fieldKey] {
			sentVals[s.val] = true
		}
		seenVal := map[string]bool{}
		for _, c := range group {
			v := c.Val().ExactString()
			if seenVal[v] {
				continue
			}
			seenVal[v] = true
			if !covered[v] || sentVals[v] {
				continue
			}
			qual := relQualified(m.Path, c.Pkg().Path()) + "." + c.Name()
			if p.excused("protocol", qual) {
				continue
			}
			pos := arms[v]
			if pos == nil {
				pos = f.Decl
			}
			ds = append(ds, Diagnostic{
				Pos:  m.Position(pos.Pos()),
				Rule: "protocol",
				Message: fmt.Sprintf("dispatcher %s has an arm for %s but nothing in the module sends it; a dead arm hides a missing sender — remove it, or declare the kind receive-only under Policy.Exceptions[\"protocol\"]",
					dispKey, c.Name()),
			})
		}
	}
	return ds
}

// collectProtoSends scans the module for constant writes into the watched
// kind fields: keyed or positional composite-literal elements, and plain
// assignments. Non-constant writes (decode paths, forwarding a received
// kind) are not sends of a specific kind and are ignored.
func collectProtoSends(m *Module, watched map[string]bool) map[string][]protoSend {
	sends := map[string][]protoSend{}
	record := func(pkg *Package, file *ast.File, fieldKey string, value ast.Expr) {
		if !watched[fieldKey] {
			return
		}
		tv, ok := pkg.Info.Types[value]
		if !ok || tv.Value == nil {
			return
		}
		sends[fieldKey] = append(sends[fieldKey], protoSend{
			val:  tv.Value.ExactString(),
			node: value,
			fn:   enclosingFuncName(pkg, file, value.Pos()),
		})
	}
	for _, pkg := range m.Pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					named, fields := litStruct(pkg, n)
					if named == nil {
						return true
					}
					owner := relQualified(m.Path, named.Obj().Pkg().Path()) + ".(" + named.Obj().Name() + ")."
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								record(pkg, file, owner+key.Name, kv.Value)
							}
							continue
						}
						if i < fields.NumFields() {
							record(pkg, file, owner+fields.Field(i).Name(), elt)
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						se, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
						if !ok || len(n.Lhs) != len(n.Rhs) {
							continue
						}
						if fieldKey := fieldQualified(m, pkg, se); fieldKey != "" {
							record(pkg, file, fieldKey, n.Rhs[i])
						}
					}
				}
				return true
			})
		}
	}
	return sends
}

// litStruct resolves a composite literal to its named struct type, or nil.
func litStruct(pkg *Package, lit *ast.CompositeLit) (*types.Named, *types.Struct) {
	t := pkg.Info.TypeOf(lit)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil, nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return named, st
}

// dispatchArms collects the case values of every switch over fieldKey in
// the dispatcher's units (union of arms, first position per value).
func dispatchArms(m *Module, f *IPFunc, fieldKey string) (covered map[string]bool, arms map[string]ast.Node, found bool) {
	covered = map[string]bool{}
	arms = map[string]ast.Node{}
	for _, u := range f.Units {
		inspectSkipLits(u.body, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			se, ok := ast.Unparen(sw.Tag).(*ast.SelectorExpr)
			if !ok || fieldQualified(m, f.Pkg, se) != fieldKey {
				return true
			}
			found = true
			for _, c := range sw.Body.List {
				cc := c.(*ast.CaseClause)
				for _, e := range cc.List {
					tv, ok := f.Pkg.Info.Types[e]
					if !ok || tv.Value == nil {
						continue
					}
					v := tv.Value.ExactString()
					covered[v] = true
					if arms[v] == nil {
						arms[v] = e
					}
				}
			}
			return true
		})
	}
	return covered, arms, found
}

// protoKindName renders a constant value as its declared name when the
// value belongs to the kind block, else as the raw value.
func protoKindName(m *Module, group []*types.Const, val string) string {
	for _, c := range group {
		if c.Val().ExactString() == val {
			return c.Name()
		}
	}
	return val
}
