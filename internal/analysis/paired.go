package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// PairedAnalyzer is the interprocedural must-release rule: every call to an
// acquire function in Policy.PairedSpecs creates an obligation that must be
// discharged on every CFG path out of the acquiring function — by a paired
// release, a defer of one, an escape into a struct field that some function
// in the module releases, a return that hands ownership to the caller, or
// an argument pass that transfers it to a callee.
func PairedAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "paired",
		Doc:  "acquired resources (pinned memory, VI slots, subscriptions, bundle writers) are released on every path",
		Explain: `docs/ARCHITECTURE.md, the pinned-memory limit and VI-slot cap: registered
memory and VI endpoints are the scarce resources the paper's scalability
argument is about (Table 2's VI utilization; the eager-pool registration
budget), so a code path that acquires one and can return without releasing
it is a leak that no test observes until the budget runs out. Each
Policy.PairedSpecs entry declares an acquire/release pair
(MemoryRegistry.Register/Deregister, Port.CreateVi/VI.Close,
Bus.Subscribe/Unsubscribe, capture.NewWriter/Writer.Close,
Port.RegisterRdmaTarget/ReleaseRdmaTarget). The rule runs a per-function
may-analysis over the shared CFG: an obligation is discharged by a release
rooted at the handle (also behind an "!= nil" guard or a defer), killed on
the acquire's own error path, or transferred — into a struct field
(tracked module-wide: some function must release through that field), to
the caller via return (the caller inherits the obligation — wrapper
functions become acquire sites themselves), or to a callee as an argument.
A path that reaches return still holding the obligation, a discarded
acquire result, and a second release of an already-released handle are
each diagnosed. Reviewed exceptions (run-scoped handles reaped wholesale
at process death) live under Policy.Exceptions["paired"] with their
justification.`,
		Subject: subjFunc,
		Run:     runPaired,
	}
}

// prObligation is one acquire site being tracked through a unit body.
type prObligation struct {
	spec     int
	node     ast.Node // the CFG-level statement containing the acquire
	pos      token.Pos
	objs     map[types.Object]bool // locals that hold the handle
	errObj   types.Object          // the error result bound at the acquire, if any
	acquired string                // qualified name of the acquire callee
	deferRel bool                  // discharged by a deferred release
	retOwned bool                  // escapes to the caller via return
	released bool                  // some non-deferred release roots at it
	leaked   bool                  // a path reaches exit still holding it
}

// prFieldStore is one handle stored into a struct field, resolved globally.
type prFieldStore struct {
	spec     int
	field    string // policy-qualified "rel/pkg.(Owner).field"
	pos      token.Pos
	acquired string
}

// prResult accumulates one whole-module pass.
type prResult struct {
	diags       []Diagnostic
	stores      []prFieldStore
	releasedFld map[string]bool // "spec#field" discharged by some release site
	retOwned    map[string]int  // function key -> spec it returns ownership of
}

func runPaired(m *Module, p *Policy) []Diagnostic {
	if len(p.PairedSpecs) == 0 {
		return nil
	}
	ip := m.Interproc()

	// acquires/releases: qualified callee -> spec index. Derived acquires
	// (functions that return ownership of a handle they acquired) are added
	// between rounds until the set is stable.
	acquires := map[string]int{}
	releases := map[string]int{}
	primary := map[string]bool{}
	for i, spec := range p.PairedSpecs {
		for _, a := range spec.Acquires {
			acquires[a] = i
			primary[a] = true
		}
		for _, r := range spec.Releases {
			releases[r] = i
			primary[r] = true
		}
	}

	var res prResult
	for {
		ip.Sweeps++
		res = prAnalyzeModule(m, ip, p, acquires, releases, primary)
		grew := false
		for _, key := range sortedKeys(res.retOwned) {
			if _, known := acquires[key]; !known && !primary[key] {
				acquires[key] = res.retOwned[key]
				grew = true
			}
		}
		if !grew {
			break
		}
	}

	ds := res.diags
	// Global field pass: every handle parked in a struct field needs some
	// release in the module that discharges through that field.
	for _, st := range res.stores {
		if res.releasedFld[fmt.Sprintf("%d#%s", st.spec, st.field)] {
			continue
		}
		spec := p.PairedSpecs[st.spec]
		ds = append(ds, Diagnostic{
			Pos:  m.Position(st.pos),
			Rule: "paired",
			Message: fmt.Sprintf("%s from %s is stored into %s, but no function releases through that field — add a releasing path calling %s, or justify under Policy.Exceptions[\"paired\"]",
				spec.Resource, st.acquired, st.field, prJoin(spec.Releases)),
		})
	}
	return ds
}

// prAnalyzeModule runs one whole-module round with the current acquire set.
func prAnalyzeModule(m *Module, ip *Interproc, p *Policy, acquires, releases map[string]int, primary map[string]bool) prResult {
	res := prResult{
		releasedFld: map[string]bool{},
		retOwned:    map[string]int{},
	}
	ip.eachUnit(p, "paired", func(f *IPFunc, u funcUnit) {
		prAnalyzeUnit(m, p, f, u, f.Key, acquires, releases, primary, &res)
	})
	return res
}

func prAnalyzeUnit(m *Module, p *Policy, f *IPFunc, u funcUnit, key string, acquires, releases map[string]int, primary map[string]bool, res *prResult) {
	info := f.Pkg.Info
	qualOf := func(call *ast.CallExpr) string {
		obj := calleeObject(info, call)
		if obj == nil {
			return ""
		}
		return relQualified(m.Path, objectQualifiedName(obj))
	}

	parent := prParentMap(u.body)
	cfgNodes := prCFGNodeSet(u.body)
	// cfgStmt walks from an inner node up to the statement (or condition
	// expression) the dataflow records states for.
	cfgStmt := func(n ast.Node) ast.Node {
		for n != nil {
			if cfgNodes[n] {
				return n
			}
			n = parent[n]
		}
		return nil
	}

	// Field-rooted locals: a local bound from a field selector (x := s.f,
	// for _, x := range s.f, x := s.f[i]) releases through that field.
	fieldLocal := map[types.Object]string{}
	bindField := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		if fk := prFieldKeyOf(m, info, rhs); fk != "" {
			fieldLocal[obj] = fk
		}
	}
	inspectSkipLits(u.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					bindField(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.RangeStmt:
			if n.Value != nil {
				bindField(n.Value, n.X)
			}
		}
		return true
	})

	// Release sites discharge field obligations module-wide: any field
	// mentioned in the receiver chain or arguments of a release call (or a
	// field a local argument was bound from) counts as released. This runs
	// for every unit, including units of functions being skipped for local
	// obligations, because the releasing method is usually not the storer.
	inspectSkipLits(u.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		spec, isRel := releases[qualOf(call)]
		if !isRel {
			return true
		}
		mark := func(fk string) {
			if fk != "" {
				res.releasedFld[fmt.Sprintf("%d#%s", spec, fk)] = true
			}
		}
		ast.Inspect(call, func(cn ast.Node) bool {
			switch cn := cn.(type) {
			case *ast.SelectorExpr:
				mark(prSelectorFieldKey(m, info, cn))
			case *ast.Ident:
				if obj := info.Uses[cn]; obj != nil {
					mark(fieldLocal[obj])
				}
			}
			return true
		})
		return true
	})

	// Collect obligations: acquire calls classified by their binding context.
	var obs []*prObligation
	inspectSkipLits(u.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		qual := qualOf(call)
		spec, isAcq := acquires[qual]
		if !isAcq || qual == key {
			return true // not an acquire, or the pair's own implementation
		}
		specDesc := p.PairedSpecs[spec]
		switch ctx := parent[call].(type) {
		case *ast.ExprStmt:
			res.diags = append(res.diags, Diagnostic{
				Pos:  m.Position(call.Pos()),
				Rule: "paired",
				Message: fmt.Sprintf("result of %s is discarded, so the %s can never be released — bind the handle and release it (%s), or justify under Policy.Exceptions[\"paired\"]",
					qual, specDesc.Resource, prJoin(specDesc.Releases)),
			})
		case *ast.ReturnStmt:
			// Ownership moves to the caller. Only a declaration body makes a
			// wrapper summary: a literal returns to whoever invokes the
			// closure, which the call graph cannot see.
			if u.lit == nil && !primary[key] {
				res.retOwned[key] = spec
			}
		case *ast.AssignStmt, *ast.ValueSpec:
			targets, errObj := prAcquireTargets(info, ctx, call)
			objs := map[types.Object]bool{}
			allBlank := true
			for _, t := range targets {
				switch t := t.(type) {
				case *ast.Ident:
					if t.Name == "_" {
						continue
					}
					allBlank = false
					if obj := info.Defs[t]; obj != nil {
						objs[obj] = true
					} else if obj := info.Uses[t]; obj != nil {
						objs[obj] = true
					}
				default:
					allBlank = false
					if fk := prFieldKeyOf(m, info, t); fk != "" {
						res.stores = append(res.stores, prFieldStore{spec: spec, field: fk, pos: call.Pos(), acquired: qual})
					}
				}
			}
			if allBlank {
				res.diags = append(res.diags, Diagnostic{
					Pos:  m.Position(call.Pos()),
					Rule: "paired",
					Message: fmt.Sprintf("result of %s is discarded, so the %s can never be released — bind the handle and release it (%s), or justify under Policy.Exceptions[\"paired\"]",
						qual, specDesc.Resource, prJoin(specDesc.Releases)),
				})
				return true
			}
			if len(objs) == 0 {
				return true // stored straight into fields; the global pass owns it
			}
			site := cfgStmt(call)
			if site == nil {
				return true
			}
			obs = append(obs, &prObligation{
				spec: spec, node: site, pos: call.Pos(),
				objs: objs, errObj: errObj, acquired: qual,
			})
		}
		return true
	})

	if len(obs) == 0 {
		return
	}
	if len(obs) > 32 {
		obs = obs[:32] // bitset width; no real unit approaches this
	}

	// Alias closure: plain ident-to-ident copies extend the handle set.
	for pass := 0; pass < 2; pass++ {
		inspectSkipLits(u.body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i := range as.Lhs {
				lhs, lok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
				rhs, rok := ast.Unparen(as.Rhs[i]).(*ast.Ident)
				if !lok || !rok || lhs.Name == "_" {
					continue
				}
				src := info.Uses[rhs]
				dst := info.Defs[lhs]
				if dst == nil {
					dst = info.Uses[lhs]
				}
				if src == nil || dst == nil {
					continue
				}
				for _, ob := range obs {
					if ob.objs[src] {
						ob.objs[dst] = true
					}
				}
			}
			return true
		})
	}

	// Deferred releases discharge everywhere (defers run on every exit,
	// including panics), and defers of closures releasing the handle count.
	inspectSkipLits(u.body, func(n ast.Node) bool {
		def, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		for _, ob := range obs {
			if prContainsRelease(info, m, def, releases, ob) {
				ob.deferRel = true
			}
		}
		return true
	})

	// Per-node effects: for each obligation, bit 2i = outstanding, bit 2i+1
	// = released on some incoming path.
	type prEffect struct {
		acquire bool
		release bool
		clear   bool // escape, transfer, or error-path kill
	}
	effects := map[ast.Node][]prEffect{}
	effectAt := func(n ast.Node, i int) *prEffect {
		row := effects[n]
		if row == nil {
			row = make([]prEffect, len(obs))
			effects[n] = row
		}
		return &row[i]
	}
	for i, ob := range obs {
		effectAt(ob.node, i).acquire = true
	}

	// Error-path kills and nil-guard releases hang off if statements.
	inspectSkipLits(u.body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		lhs, op, ok := prNilCompare(ifs.Cond)
		if !ok {
			return true
		}
		id, isIdent := ast.Unparen(lhs).(*ast.Ident)
		if !isIdent {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		for i, ob := range obs {
			if obj == ob.errObj {
				// The acquire failed on this branch: no resource to release.
				switch {
				case op == token.NEQ:
					for _, s := range ifs.Body.List {
						effectAt(s, i).clear = true
					}
				case op == token.EQL && ifs.Else != nil:
					prMarkBranch(ifs.Else, func(s ast.Stmt) { effectAt(s, i).clear = true })
				}
			}
			if ob.objs[obj] && op == token.NEQ && prContainsRelease(info, m, ifs.Body, releases, ob) {
				// "if h != nil { release(h) }": acquired implies non-nil, so
				// both branches discharge. The condition is the CFG node.
				effectAt(ifs.Cond, i).clear = true
			}
		}
		return true
	})

	// Releases, returns, escapes, transfers.
	inspectSkipLits(u.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			return false // deferred effects already folded in
		case *ast.CallExpr:
			qual := qualOf(n)
			if spec, isRel := releases[qual]; isRel {
				site := cfgStmt(n)
				for i, ob := range obs {
					if ob.spec != spec || site == nil {
						continue
					}
					if prRootedAt(info, n, ob.objs) {
						effectAt(site, i).release = true
						ob.released = true
					}
				}
				return true
			}
			if _, isAcq := acquires[qual]; isAcq {
				return true
			}
			// Handle passed as an argument: ownership transfers to the
			// callee (receivers are reads, not transfers).
			site := cfgStmt(n)
			for i, ob := range obs {
				if site == nil {
					continue
				}
				for _, arg := range n.Args {
					if prMentions(info, arg, ob.objs) {
						effectAt(site, i).clear = true
						break
					}
				}
			}
		case *ast.ReturnStmt:
			for i, ob := range obs {
				if !prMentions(info, n, ob.objs) {
					continue
				}
				effectAt(n, i).clear = true
				if prContainsRelease(info, m, n, releases, ob) {
					continue // "return h.Close()" releases; nothing transfers
				}
				if u.lit == nil && !primary[key] {
					ob.retOwned = true
					res.retOwned[key] = ob.spec
				} else {
					ob.retOwned = true // literal: caller unknown, stay silent
				}
			}
		case *ast.AssignStmt:
			// Handle stored through a selector/index, or captured by a
			// composite literal: the obligation escapes this function.
			for i, ob := range obs {
				if n == ob.node {
					continue
				}
				escaped := false
				for j, l := range n.Lhs {
					if _, isIdent := ast.Unparen(l).(*ast.Ident); isIdent {
						continue
					}
					// Only a store of the handle itself (conversions and &
					// unwrapped) escapes; "res.Events = cw.Events()" stores a
					// stat read, not the writer.
					var r ast.Expr
					if len(n.Rhs) == len(n.Lhs) {
						r = n.Rhs[j]
					} else if len(n.Rhs) == 1 {
						r = n.Rhs[0]
					}
					if r == nil || !prIsHandle(info, r, ob.objs) {
						continue
					}
					escaped = true
					if fk := prFieldKeyOf(m, info, l); fk != "" {
						res.stores = append(res.stores, prFieldStore{spec: ob.spec, field: fk, pos: n.Pos(), acquired: ob.acquired})
					}
				}
				for _, r := range n.Rhs {
					for _, st := range prCompositeStores(m, info, r, ob) {
						res.stores = append(res.stores, st)
						escaped = true
					}
				}
				if escaped {
					if site := cfgStmt(n); site != nil {
						effectAt(site, i).clear = true
					}
				}
			}
		}
		return true
	})

	// Dataflow. Effect precedence per node: release beats clear (a release
	// inside a return statement is a release), acquire applies last so an
	// acquire node leaves its own obligation outstanding.
	transfer := func(node ast.Node, in uint64) uint64 {
		row, ok := effects[node]
		if !ok {
			return in
		}
		out := in
		for i := range obs {
			e := row[i]
			o, r := uint64(1)<<(2*i), uint64(1)<<(2*i+1)
			switch {
			case e.release:
				out = (out &^ o) | r
			case e.clear:
				out &^= o
			}
			if e.acquire {
				out |= o
			}
		}
		return out
	}
	states := nodeMayStates(u.body, 0, transfer)
	exit := exitMayState(u.body, 0, transfer)

	for i, ob := range obs {
		o := uint64(1) << (2 * i)
		spec := p.PairedSpecs[ob.spec]
		if exit&o != 0 && !ob.deferRel {
			res.diags = append(res.diags, Diagnostic{
				Pos:  m.Position(ob.pos),
				Rule: "paired",
				Message: fmt.Sprintf("%s acquired by %s here is not released on every path out of %s: a return is reachable with the handle still held — release it (%s), defer the release, or justify under Policy.Exceptions[\"paired\"]",
					spec.Resource, ob.acquired, key, prJoin(spec.Releases)),
			})
			ob.leaked = true
		}
	}

	// Double-release detection: a release site whose incoming state has the
	// released bit set and the outstanding bit clear fires on every path
	// after a first release. Deferred releases are not re-flagged against
	// themselves, but an explicit release alongside a defer is.
	inspectSkipLits(u.body, func(n ast.Node) bool {
		if _, isDefer := n.(*ast.DeferStmt); isDefer {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		spec, isRel := releases[qualOf(call)]
		if !isRel {
			return true
		}
		site := cfgStmt(call)
		if site == nil {
			return true
		}
		for i, ob := range obs {
			if ob.spec != spec || !prRootedAt(info, call, ob.objs) {
				continue
			}
			in, reached := mayStateAt(states, u.body, site)
			if !reached {
				continue
			}
			o, r := uint64(1)<<(2*i), uint64(1)<<(2*i+1)
			if in&r != 0 && in&o == 0 {
				res.diags = append(res.diags, Diagnostic{
					Pos:  m.Position(call.Pos()),
					Rule: "paired",
					Message: fmt.Sprintf("%s from %s is already released on every path reaching this second release — double release corrupts the %s accounting; remove one, or justify under Policy.Exceptions[\"paired\"]",
						spec2Name(p, spec), ob.acquired, p.PairedSpecs[spec].Resource),
				})
			}
			if ob.deferRel {
				res.diags = append(res.diags, Diagnostic{
					Pos:  m.Position(call.Pos()),
					Rule: "paired",
					Message: fmt.Sprintf("%s from %s is released both here and by a deferred release in the same function — the defer makes this a double release; remove one, or justify under Policy.Exceptions[\"paired\"]",
						spec2Name(p, spec), ob.acquired),
				})
			}
		}
		return true
	})
}

func spec2Name(p *Policy, spec int) string { return p.PairedSpecs[spec].Resource }

// prAcquireTargets returns the binding targets matching the acquire call in
// an assignment or declaration, plus the error-typed target if present.
func prAcquireTargets(info *types.Info, ctx ast.Node, call *ast.CallExpr) ([]ast.Expr, types.Object) {
	var lhs, rhs []ast.Expr
	switch ctx := ctx.(type) {
	case *ast.AssignStmt:
		lhs, rhs = ctx.Lhs, ctx.Rhs
	case *ast.ValueSpec:
		for _, n := range ctx.Names {
			lhs = append(lhs, n)
		}
		rhs = ctx.Values
	default:
		return nil, nil
	}
	var targets []ast.Expr
	if len(rhs) == 1 {
		targets = lhs // multi-value call: all targets bind its results
	} else {
		for i, r := range rhs {
			if ast.Unparen(r) == call && i < len(lhs) {
				targets = []ast.Expr{lhs[i]}
			}
		}
	}
	var errObj types.Object
	var rest []ast.Expr
	for _, t := range targets {
		id, ok := ast.Unparen(t).(*ast.Ident)
		if ok && id.Name != "_" {
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil && obj.Type() != nil && types.Identical(obj.Type(), types.Universe.Lookup("error").Type()) {
				errObj = obj
				continue
			}
		}
		rest = append(rest, t)
	}
	return rest, errObj
}

// prRootedAt reports whether the release call's receiver base or any
// argument (conversions unwrapped) is one of the obligation's handles.
func prRootedAt(info *types.Info, call *ast.CallExpr, objs map[types.Object]bool) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && objs[info.Uses[id]] {
			return true
		}
	}
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(prUnconvert(info, arg)).(*ast.Ident); ok && objs[info.Uses[id]] {
			return true
		}
	}
	return false
}

// prContainsRelease reports whether n (descending into literals: deferred
// closures run too) contains a release of ob's spec rooted at its handles.
func prContainsRelease(info *types.Info, m *Module, n ast.Node, releases map[string]int, ob *prObligation) bool {
	found := false
	ast.Inspect(n, func(cn ast.Node) bool {
		call, ok := cn.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObject(info, call)
		if obj == nil {
			return true
		}
		if spec, isRel := releases[relQualified(m.Path, objectQualifiedName(obj))]; isRel && spec == ob.spec && prRootedAt(info, call, ob.objs) {
			found = true
		}
		return true
	})
	return found
}

// prIsHandle reports whether e *is* one of the obligation's handles —
// possibly behind parentheses, type conversions, or a unary & — as opposed
// to merely mentioning one (a method call on the handle, an arithmetic use).
func prIsHandle(info *types.Info, e ast.Expr, objs map[types.Object]bool) bool {
	e = ast.Unparen(prUnconvert(info, e))
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	id, ok := e.(*ast.Ident)
	return ok && objs[info.Uses[id]]
}

// prMentions reports whether any handle ident occurs inside n.
func prMentions(info *types.Info, n ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(n, func(cn ast.Node) bool {
		if id, ok := cn.(*ast.Ident); ok && objs[info.Uses[id]] {
			found = true
		}
		return true
	})
	return found
}

// prCompositeStores finds composite-literal fields capturing a handle:
// &Win{mem: mem} parks the obligation in (Win).mem.
func prCompositeStores(m *Module, info *types.Info, e ast.Expr, ob *prObligation) []prFieldStore {
	var stores []prFieldStore
	ast.Inspect(e, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if !prIsHandle(info, kv.Value, ob.objs) {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			if fv, ok := info.Uses[key].(*types.Var); ok && fv.IsField() {
				if fk := prFieldVarKey(m, fv, info.TypeOf(lit)); fk != "" {
					stores = append(stores, prFieldStore{spec: ob.spec, field: fk, pos: kv.Pos(), acquired: ob.acquired})
				}
			}
		}
		return true
	})
	return stores
}

// prFieldKeyOf resolves an expression to a struct-field key when it is a
// field selector (or index/slice thereof): s.f, s.f[i].
func prFieldKeyOf(m *Module, info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return prSelectorFieldKey(m, info, e)
	case *ast.IndexExpr:
		return prFieldKeyOf(m, info, e.X)
	}
	return ""
}

// prSelectorFieldKey resolves a selector to "rel/pkg.(Owner).field" when it
// selects a struct field.
func prSelectorFieldKey(m *Module, info *types.Info, sel *ast.SelectorExpr) string {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	fv, ok := s.Obj().(*types.Var)
	if !ok {
		return ""
	}
	return prFieldVarKey(m, fv, s.Recv())
}

// prFieldVarKey renders a field variable with its owner type.
func prFieldVarKey(m *Module, fv *types.Var, recv types.Type) string {
	if recv == nil || fv.Pkg() == nil {
		return ""
	}
	for {
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
			continue
		}
		break
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return ""
	}
	return relQualified(m.Path, fv.Pkg().Path()+".("+named.Obj().Name()+")."+fv.Name())
}

// prUnconvert strips type conversions: via.MemHandle(req.rmem) roots at
// req.rmem.
func prUnconvert(info *types.Info, e ast.Expr) ast.Expr {
	for {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return e
		}
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			e = call.Args[0]
			continue
		}
		return e
	}
}

// prNilCompare matches "x != nil" / "x == nil" and returns the non-nil side.
func prNilCompare(cond ast.Expr) (ast.Expr, token.Token, bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return nil, 0, false
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	switch {
	case isNil(be.Y):
		return be.X, be.Op, true
	case isNil(be.X):
		return be.Y, be.Op, true
	}
	return nil, 0, false
}

// prMarkBranch applies fn to the top-level statements of an else branch
// (either a block or a chained if).
func prMarkBranch(s ast.Stmt, fn func(ast.Stmt)) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			fn(st)
		}
	case *ast.IfStmt:
		fn(s)
	}
}

// prParentMap records each node's parent within one unit body, literals
// excluded (they are separate units).
func prParentMap(body *ast.BlockStmt) map[ast.Node]ast.Node {
	parent := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parent[n] = stack[len(stack)-1]
		}
		if _, isLit := n.(*ast.FuncLit); isLit && n != body {
			return false
		}
		stack = append(stack, n)
		return true
	})
	return parent
}

// prCFGNodeSet collects the nodes the CFG records states for.
func prCFGNodeSet(body *ast.BlockStmt) map[ast.Node]bool {
	set := map[ast.Node]bool{}
	for _, blk := range buildCFG(body).blocks {
		for _, n := range blk.nodes {
			set[n] = true
		}
	}
	return set
}

func prJoin(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " / "
		}
		out += n
	}
	return out
}
