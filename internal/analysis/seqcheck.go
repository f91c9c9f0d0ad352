package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// SeqCheckAnalyzer is the use-after-close sequencing rule: once a variable
// has been through a closing function (Policy.SeqCheckClose), no send entry
// point (Policy.SeqCheckSend) may be rooted at it until the variable is
// rebound — which is exactly what the reconnect path does (a fresh channel
// from Rank.channel).
func SeqCheckAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "seqcheck",
		Doc:  "no send on an evicted or closed channel without an interposed reconnect",
		Explain: `docs/ARCHITECTURE.md, the eviction/reconnect lifecycle: teardownChannel
dismantles a channel (closes the VI, deregisters eager-pool memory,
forgets the peer), so any send posted afterwards on the same variable
rides a dead endpoint — the descriptor is silently lost, which the PR 3
quiescence handshake exists to prevent. The reconnect path never has this
problem because it rebinds: Rank.channel returns a fresh chanState and the
held pendingClose packet is re-posted on that. This rule runs a per-
function may-analysis: a call to a Policy.SeqCheckClose function marks the
channel-typed variables it roots at as closed; reassigning the variable
clears the mark; a Policy.SeqCheckSend call rooted at a still-marked
variable is diagnosed. The closing functions' own bodies are exempt (they
drain and re-post holds by design), and reviewed exceptions live under
Policy.Exceptions["seqcheck"].`,
		Subject: subjFunc,
		Run:     runSeqCheck,
	}
}

func runSeqCheck(m *Module, p *Policy) []Diagnostic {
	if len(p.SeqCheckClose) == 0 || len(p.SeqCheckSend) == 0 {
		return nil
	}
	var ds []Diagnostic
	m.Interproc().eachUnit(p, "seqcheck", func(f *IPFunc, u funcUnit) {
		// The closers' own bodies re-post holds by design.
		if _, closer := p.SeqCheckClose[f.Key]; !closer {
			ds = append(ds, seqCheckUnit(m, p, f, u, f.Key)...)
		}
	})
	return ds
}

func seqCheckUnit(m *Module, p *Policy, f *IPFunc, u funcUnit, key string) []Diagnostic {
	info := f.Pkg.Info
	qualOf := func(call *ast.CallExpr) string { return calleeName(m, f.Pkg, call) }

	// Pass 1: the closed-variable universe — roots of close calls. A root
	// is a pointer-to-struct argument (the channel being dismantled), or
	// the receiver base when the closer is a method with no such argument.
	var vars []types.Object
	index := map[types.Object]int{}
	addRoot := func(obj types.Object) {
		if obj == nil {
			return
		}
		if _, seen := index[obj]; !seen && len(vars) < 64 {
			index[obj] = len(vars)
			vars = append(vars, obj)
		}
	}
	rootsOf := func(call *ast.CallExpr) []types.Object {
		var roots []types.Object
		for _, arg := range call.Args {
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Uses[id]
			if obj == nil {
				continue
			}
			if _, isPtr := obj.Type().Underlying().(*types.Pointer); isPtr {
				roots = append(roots, obj)
			}
		}
		if len(roots) == 0 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if id, ok := seqBaseIdent(sel.X); ok {
					roots = append(roots, info.Uses[id])
				}
			}
		}
		return roots
	}
	inspectSkipLits(u.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, closes := p.SeqCheckClose[qualOf(call)]; closes {
			for _, r := range rootsOf(call) {
				addRoot(r)
			}
		}
		return true
	})
	if len(vars) == 0 {
		return nil
	}

	parent := prParentMap(u.body)
	cfgNodes := prCFGNodeSet(u.body)
	cfgStmt := func(n ast.Node) ast.Node {
		for n != nil {
			if cfgNodes[n] {
				return n
			}
			n = parent[n]
		}
		return nil
	}

	// Per-node effects: bit i set = vars[i] has been closed on some path.
	type seqEffect struct{ close, rebind uint64 }
	effects := map[ast.Node]*seqEffect{}
	effectAt := func(n ast.Node) *seqEffect {
		e := effects[n]
		if e == nil {
			e = &seqEffect{}
			effects[n] = e
		}
		return e
	}
	inspectSkipLits(u.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if _, closes := p.SeqCheckClose[qualOf(n)]; closes {
				if site := cfgStmt(n); site != nil {
					for _, r := range rootsOf(n) {
						if i, ok := index[r]; ok {
							effectAt(site).close |= 1 << i
						}
					}
				}
			}
		case *ast.AssignStmt:
			// Rebinding the variable (cs, err = r.channel(peer)) clears the
			// mark: the reconnect path hands back a fresh channel.
			for _, l := range n.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok {
					obj := info.Defs[id]
					if obj == nil {
						obj = info.Uses[id]
					}
					if i, ok := index[obj]; ok {
						if site := cfgStmt(n); site != nil {
							effectAt(site).rebind |= 1 << i
						}
					}
				}
			}
		}
		return true
	})

	transfer := func(node ast.Node, in uint64) uint64 {
		if e, ok := effects[node]; ok {
			in = (in &^ e.rebind) | e.close
		}
		return in
	}
	states := nodeMayStates(u.body, 0, transfer)

	var ds []Diagnostic
	inspectSkipLits(u.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		qual := qualOf(call)
		if _, sends := p.SeqCheckSend[qual]; !sends {
			return true
		}
		site := cfgStmt(call)
		if site == nil {
			return true
		}
		in, reached := mayStateAt(states, u.body, site)
		if !reached {
			return true
		}
		for _, r := range seqSendRoots(info, call) {
			i, tracked := index[r]
			if !tracked || in&(1<<i) == 0 {
				continue
			}
			ds = append(ds, Diagnostic{
				Pos:  m.Position(call.Pos()),
				Rule: "seqcheck",
				Message: fmt.Sprintf("%s in %s is rooted at %s, which a Policy.SeqCheckClose function already closed on some path — the descriptor rides a dead endpoint; rebind via the reconnect path first, or justify under Policy.Exceptions[\"seqcheck\"]",
					qual, key, r.Name()),
			})
			break
		}
		return true
	})
	return ds
}

// seqSendRoots returns the candidate roots of a send call: the receiver
// chain's base identifier plus any plain (or selector-based) identifier
// arguments' bases.
func seqSendRoots(info *types.Info, call *ast.CallExpr) []types.Object {
	var roots []types.Object
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := seqBaseIdent(sel.X); ok {
			if obj := info.Uses[id]; obj != nil {
				roots = append(roots, obj)
			}
		}
	}
	for _, arg := range call.Args {
		if id, ok := seqBaseIdent(arg); ok {
			if obj := info.Uses[id]; obj != nil {
				roots = append(roots, obj)
			}
		}
	}
	return roots
}

// seqBaseIdent walks a selector/index chain to its base identifier.
func seqBaseIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x, true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}
