package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// PairedAnalyzer is the interprocedural must-release rule: every call to an
// acquire function in Policy.PairedSpecs creates an obligation that must be
// discharged on every CFG path out of the acquiring function — by a paired
// release, a defer of one, an escape into a struct field that some function
// in the module releases, a return that hands ownership to the caller, or
// an argument pass that transfers it to a callee. Three verdicts come out of
// the one per-body dataflow: a leak, a double release, and a use after
// release.
func PairedAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "paired",
		Doc:  "acquired resources (pinned memory, VI slots, subscriptions, bundle writers) are released on every path, once, and not used afterwards",
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
each diagnosed. The third verdict is the eviction/reconnect lifecycle's:
teardownChannel dismantles a channel (closes the VI, deregisters eager-pool
memory, forgets the peer), so a send posted afterwards on the same variable
rides a dead endpoint and is silently lost — what the PR 3 quiescence
handshake exists to prevent. A spec's Uses are the calls that need the
resource live (Rank.post/emit, VI.PostSend/PostRdmaWrite): a release marks
the variables it is rooted at, rebinding one clears the mark (the reconnect
path returns a fresh channel), and a use rooted at a still-marked variable
is diagnosed; the releasers' own bodies re-post holds by design and are
exempt. Reviewed exceptions (run-scoped handles reaped wholesale at process
death) live under Policy.Exceptions["paired"] with their justification.`,
		Subject: subjFunc,
		Run:     runPaired,
	}
}

// prTables indexes the policy's specs by qualified callee; the value is the
// index into Policy.PairedSpecs. acquires grows between rounds: a function
// that returns ownership of a handle it acquired is an acquire site for its
// callers.
type prTables struct{ acquires, releases, uses map[string]int }

// prObligation is one acquire site being tracked through a unit body.
type prObligation struct {
	spec     int
	node     ast.Node // the CFG node containing the acquire
	pos      token.Pos
	objs     map[types.Object]bool // locals that hold the handle
	errObj   types.Object          // the error result bound at the acquire, if any
	acquired string                // qualified name of the acquire callee
	deferRel bool                  // discharged by a deferred release
	o, r     uint64                // state bits: outstanding; released on some incoming path
}

// prField is a struct field a handle of one spec is parked in.
type prField struct {
	spec  int
	field string // policy-qualified "rel/pkg.(Owner).field"
}

// prFieldStore is one handle stored into a struct field, resolved globally.
type prFieldStore struct {
	prField
	pos      token.Pos
	acquired string
}

// prResult accumulates one whole-module round.
type prResult struct {
	diags    []Diagnostic
	stores   []prFieldStore
	released map[prField]bool // discharged by some release site
	retOwned map[string]int   // function key -> spec it returns ownership of
}

func runPaired(m *Module, p *Policy) []Diagnostic {
	ip := m.Interproc()
	tab := &prTables{acquires: map[string]int{}, releases: map[string]int{}, uses: map[string]int{}}
	for i, spec := range p.PairedSpecs {
		for _, name := range spec.Acquires {
			tab.acquires[name] = i
		}
		for _, name := range spec.Releases {
			tab.releases[name] = i
		}
		for _, name := range spec.Uses {
			tab.uses[name] = i
		}
	}

	// Rounds: derived acquires (functions that return ownership of a handle
	// they acquired) join the table until the set is stable.
	var res *prResult
	for grew := true; grew; {
		ip.Sweeps++
		res = &prResult{released: map[prField]bool{}, retOwned: map[string]int{}}
		ip.eachUnit(p, "paired", func(f *IPFunc, u funcUnit) {
			pu := &prUnit{m: m, p: p, tab: tab, res: res, pkg: f.Pkg, info: f.Pkg.Info, u: u, key: f.Key, fl: ip.flow(u.body),
				fieldLocal: map[types.Object]string{}, masks: map[ast.Node]*prMasks{}}
			pu.collect()
			released := pu.releases()
			for _, ob := range pu.obs {
				pu.effects(ob)
			}
			pu.report(released)
		})
		grew = false
		for _, key := range slices.Sorted(maps.Keys(res.retOwned)) {
			if _, known := tab.acquires[key]; !known {
				tab.acquires[key] = res.retOwned[key]
				grew = true
			}
		}
	}

	// Global field pass: every handle parked in a struct field needs some
	// release in the module that discharges through that field.
	for _, st := range res.stores {
		if !res.released[st.prField] {
			spec := p.PairedSpecs[st.spec]
			res.diags = append(res.diags, Diagnostic{Pos: m.Position(st.pos), Rule: "paired",
				Message: fmt.Sprintf("%s from %s is stored into %s, but no function releases through that field — add a releasing path calling %s, or justify under Policy.Exceptions[\"paired\"]",
					spec.Resource, st.acquired, st.field, strings.Join(spec.Releases, " / "))})
		}
	}
	return res.diags
}

// prCall is one call in a unit body.
type prCall struct {
	call     *ast.CallExpr
	qual     string // policy-qualified callee
	deferred bool   // inside a defer statement: it runs at return, not here
}

// prBind is one assignment or var declaration: lhs[i] = rhs[i], or every lhs
// from the one multi-value rhs.
type prBind struct {
	lhs, rhs []ast.Expr
	at       ast.Node
}

// prMasks is what one CFG node does to the state word: out = in &^ clr | set.
// Clearing before setting gives the precedence the verdicts need: a release
// inside a return statement is a release (the return's clear agrees with it),
// and an acquire node leaves its own obligation outstanding.
type prMasks struct{ clr, set uint64 }

// prUnit is one body under analysis: the module-wide tables it reads and
// feeds, what collect found in the body, and the dataflow being assembled.
type prUnit struct {
	m    *Module
	p    *Policy
	tab  *prTables
	res  *prResult
	pkg  *Package
	info *types.Info
	u    funcUnit
	key  string // policy-qualified name of the enclosing declaration
	fl   *unitFlow

	obs     []*prObligation
	calls   []prCall
	binds   []*prBind
	ifs     []*ast.IfStmt
	returns []*ast.ReturnStmt
	defers  []*ast.DeferStmt
	// fieldLocal: a local bound from a field selector (x := s.f, x := s.f[i],
	// for _, x := range s.f) releases through that field.
	fieldLocal map[types.Object]string

	bits  int // state bits handed out; past 64 a tracked thing gets none and goes unjudged
	masks map[ast.Node]*prMasks
}

func (pu *prUnit) bit() uint64 {
	pu.bits++
	return 1 << (pu.bits - 1)
}

// at returns the masks of the CFG node containing n.
func (pu *prUnit) at(n ast.Node) *prMasks {
	site := pu.fl.site(n)
	if pu.masks[site] == nil {
		pu.masks[site] = &prMasks{}
	}
	return pu.masks[site]
}

func (pu *prUnit) diag(pos token.Pos, format string, args ...any) {
	pu.res.diags = append(pu.res.diags, Diagnostic{Pos: pu.m.Position(pos), Rule: "paired",
		Message: fmt.Sprintf(format, args...) + `, or justify under Policy.Exceptions["paired"]`})
}

// collect is the one walk over the body: it files every call, binding,
// branch, return and defer the later phases read, in source order, and
// settles each acquire by the statement it is the whole value of.
func (pu *prUnit) collect() {
	bind := func(lhs, rhs []ast.Expr, at ast.Node) {
		pu.binds = append(pu.binds, &prBind{lhs, rhs, at})
		for i, r := range rhs {
			targets := lhs // one multi-value call binds every target
			if len(rhs) > 1 {
				targets = lhs[i : i+1]
			}
			if len(targets) == 1 {
				pu.bindField(targets[0], r)
			}
			if call, spec := pu.acquire(r); call != nil {
				pu.bound(call, spec, targets)
			}
		}
	}
	var deferEnd token.Pos
	inspectSkipLits(pu.u.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, spec := pu.acquire(n.X); call != nil {
				pu.discarded(call, spec)
			}
		case *ast.ReturnStmt:
			pu.returns = append(pu.returns, n)
			for _, r := range n.Results {
				if call, spec := pu.acquire(r); call != nil {
					pu.returnsOwned(spec)
				}
			}
		case *ast.AssignStmt:
			bind(n.Lhs, n.Rhs, n)
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(n.Names))
			for i, name := range n.Names {
				lhs[i] = name
			}
			bind(lhs, n.Values, n)
		case *ast.RangeStmt:
			if n.Value != nil {
				pu.bindField(n.Value, n.X)
			}
		case *ast.IfStmt:
			pu.ifs = append(pu.ifs, n)
		case *ast.DeferStmt:
			pu.defers = append(pu.defers, n)
			deferEnd = n.End()
		case *ast.CallExpr:
			pu.calls = append(pu.calls, prCall{n, calleeName(pu.m, pu.pkg, n), n.Pos() < deferEnd})
		}
		return true
	})
}

// acquire returns e as a call to an acquire function, with its spec; nil when
// e is anything else (the pair's own implementation included).
func (pu *prUnit) acquire(e ast.Expr) (*ast.CallExpr, int) {
	if call, ok := e.(*ast.CallExpr); ok {
		if qual := calleeName(pu.m, pu.pkg, call); qual != pu.key {
			if spec, isAcq := pu.tab.acquires[qual]; isAcq {
				return call, spec
			}
		}
	}
	return nil, 0
}

func (pu *prUnit) discarded(call *ast.CallExpr, spec int) {
	desc := pu.p.PairedSpecs[spec]
	pu.diag(call.Pos(), "result of %s is discarded, so the %s can never be released — bind the handle and release it (%s)",
		calleeName(pu.m, pu.pkg, call), desc.Resource, strings.Join(desc.Releases, " / "))
}

// returnsOwned notes that this function hands a handle of spec to its
// caller, who inherits the obligation. Only a declaration body makes a
// wrapper summary — a literal returns to whoever invokes the closure, which
// the call graph cannot see — and never the pair's own implementation.
func (pu *prUnit) returnsOwned(spec int) {
	_, acquire := pu.tab.acquires[pu.key]
	_, release := pu.tab.releases[pu.key]
	if pu.u.lit == nil && !acquire && !release {
		pu.res.retOwned[pu.key] = spec
	}
}

// bound settles an acquire whose results are bound to targets: locals hold
// the handle and make it an obligation, the error result marks the acquire's
// failure path, a field is a store for the global pass, and all blank is a
// discarded result.
func (pu *prUnit) bound(call *ast.CallExpr, spec int, targets []ast.Expr) {
	ob := &prObligation{spec: spec, node: pu.fl.site(call), pos: call.Pos(), objs: map[types.Object]bool{}, acquired: calleeName(pu.m, pu.pkg, call)}
	allBlank := true
	for _, t := range targets {
		obj := identObj(pu.info, t)
		if id, ok := ast.Unparen(t).(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		switch {
		case obj != nil && types.Identical(obj.Type(), types.Universe.Lookup("error").Type()):
			ob.errObj = obj
			continue
		case obj != nil:
			ob.objs[obj] = true
		default:
			pu.store(ob, pu.fieldKey(t), call.Pos())
		}
		allBlank = false
	}
	switch {
	case allBlank:
		pu.discarded(call, spec)
	case len(ob.objs) > 0:
		ob.o, ob.r = pu.bit(), pu.bit()
		pu.obs = append(pu.obs, ob)
	}
}

func (pu *prUnit) bindField(lhs, rhs ast.Expr) {
	if obj, fk := identObj(pu.info, lhs), pu.fieldKey(rhs); obj != nil && fk != "" {
		pu.fieldLocal[obj] = fk
	}
}

// fieldKey resolves s.f or s.f[i] to "rel/pkg.(Owner).f"; "" for anything
// else.
func (pu *prUnit) fieldKey(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		return pu.fieldKey(x.X)
	case *ast.SelectorExpr:
		return fieldQualified(pu.m, pu.pkg, x)
	}
	return ""
}

func (pu *prUnit) store(ob *prObligation, field string, pos token.Pos) {
	if field != "" {
		pu.res.stores = append(pu.res.stores, prFieldStore{prField{ob.spec, field}, pos, ob.acquired})
	}
}

// effects fills the mask table with what each CFG node does to ob, from
// what collect filed.
func (pu *prUnit) effects(ob *prObligation) {
	info := pu.info
	// Alias closure: plain ident-to-ident copies extend the handle set.
	for pass := 0; pass < 2; pass++ {
		for _, b := range pu.binds {
			for i := 0; i < len(b.lhs) && len(b.lhs) == len(b.rhs); i++ {
				if dst := identObj(info, b.lhs[i]); dst != nil && ob.objs[identObj(info, b.rhs[i])] {
					ob.objs[dst] = true
				}
			}
		}
	}
	pu.at(ob.node).set |= ob.o
	// Deferred releases discharge everywhere: defers run on every exit.
	for _, def := range pu.defers {
		for _, call := range deferred(def) {
			ob.deferRel = ob.deferRel || pu.releaseOf(call, ob)
		}
	}

	// Error-path kills and nil-guard releases hang off if statements.
	for _, ifs := range pu.ifs {
		v, nonNil := prNonNilBranch(info, ifs)
		if v != nil && v == ob.errObj && nonNil != nil {
			// The acquire failed on this branch: no resource to release.
			for _, n := range pu.fl.within(nonNil) {
				pu.at(n).clr |= ob.o
			}
		}
		if ob.objs[v] && nonNil == ast.Stmt(ifs.Body) && pu.releasesIn(ifs.Body, ob) {
			// "if h != nil { release(h) }": acquired implies non-nil, so both
			// branches discharge. The condition is the CFG node.
			pu.at(ifs.Cond).clr |= ob.o
		}
	}

	for _, c := range pu.calls {
		_, isAcq := pu.tab.acquires[c.qual]
		_, isRel := pu.tab.releases[c.qual]
		switch {
		case c.deferred: // folded in above
		case pu.releaseOf(c.call, ob):
			pu.at(c.call).clr |= ob.o
			pu.at(c.call).set |= ob.r
		case !isAcq && !isRel && slices.ContainsFunc(c.call.Args, func(arg ast.Expr) bool { return prMentions(info, arg, ob.objs) }):
			// Handle passed as an argument: ownership transfers to the
			// callee (receivers are reads, not transfers).
			pu.at(c.call).clr |= ob.o
		}
	}

	for _, ret := range pu.returns {
		if prMentions(info, ret, ob.objs) {
			pu.at(ret).clr |= ob.o
			// "return h.Close()" releases; any other mention hands the handle
			// to the caller.
			if !pu.releasesIn(ret, ob) {
				pu.returnsOwned(ob.spec)
			}
		}
	}

	// Handle stored through a selector/index, or captured by a composite
	// literal: the obligation escapes this function.
	for _, b := range pu.binds {
		escaped := false
		for j := 0; j < len(b.lhs) && len(b.lhs) == len(b.rhs); j++ {
			// Only a store of the handle itself (conversions and & unwrapped)
			// escapes; "res.Events = cw.Events()" stores a stat read, not the
			// writer.
			if _, local := ast.Unparen(b.lhs[j]).(*ast.Ident); !local && prIsHandle(info, b.rhs[j], ob.objs) {
				escaped = true
				pu.store(ob, pu.fieldKey(b.lhs[j]), b.at.Pos())
			}
		}
		for _, r := range b.rhs {
			escaped = pu.compositeStores(r, ob) || escaped
		}
		if escaped && pu.fl.site(b.at) != ob.node {
			pu.at(b.at).clr |= ob.o
		}
	}
}

// releases settles the body's release calls. Each discharges, module-wide,
// every field in its receiver chain or arguments (or one a local argument was
// bound from): the releasing method is usually not the storer. And it opens
// the third verdict, whose universe is variables, not acquire sites: a
// release of a spec with Uses marks the variables it is rooted at, and
// rebinding one clears the mark (cs, err = r.channel(peer) hands back a fresh
// channel). It returns each such variable's state bit — "released on some
// path" — with the masks already in the table.
func (pu *prUnit) releases() map[types.Object]uint64 {
	released := map[types.Object]uint64{}
	_, releaser := pu.tab.releases[pu.key] // its own body drains and re-posts what it holds by design
	for _, c := range pu.calls {
		spec, isRel := pu.tab.releases[c.qual]
		if !isRel {
			continue
		}
		ast.Inspect(c.call, func(n ast.Node) bool {
			switch n := n.(type) { // a "" field is no store's key
			case *ast.SelectorExpr:
				pu.res.released[prField{spec, fieldQualified(pu.m, pu.pkg, n)}] = true
			case *ast.Ident:
				pu.res.released[prField{spec, pu.fieldLocal[pu.info.Uses[n]]}] = true
			}
			return true
		})
		if releaser || len(pu.p.PairedSpecs[spec].Uses) == 0 {
			continue
		}
		// A release dismantles its pointer arguments (the channel being torn
		// down), or the base of its receiver chain when it has none.
		var roots []types.Object
		for _, arg := range c.call.Args {
			if v := identObj(pu.info, arg); v != nil {
				if _, isPtr := v.Type().Underlying().(*types.Pointer); isPtr {
					roots = append(roots, v)
				}
			}
		}
		if len(roots) == 0 {
			roots = append(roots, rootVar(pu.info, c.call.Fun))
		}
		for _, v := range roots {
			if v != nil && released[v] == 0 {
				released[v] = pu.bit()
			}
			pu.at(c.call).set |= released[v]
		}
	}
	for _, b := range pu.binds {
		for _, l := range b.lhs {
			pu.at(b.at).clr |= released[identObj(pu.info, l)]
		}
	}
	return released
}

// report solves the dataflow and renders the three verdicts.
func (pu *prUnit) report(released map[types.Object]uint64) {
	if len(pu.masks) == 0 {
		return // nothing to follow in this body
	}
	states := pu.fl.solve(0, func(node ast.Node, in uint64) uint64 {
		if e := pu.masks[node]; e != nil {
			in = in&^e.clr | e.set
		}
		return in
	})

	for _, ob := range pu.obs {
		if states.exit()&ob.o != 0 && !ob.deferRel {
			spec := pu.p.PairedSpecs[ob.spec]
			pu.diag(ob.pos, "%s acquired by %s here is not released on every path out of %s: a return is reachable with the handle still held — release it (%s), defer the release",
				spec.Resource, ob.acquired, pu.key, strings.Join(spec.Releases, " / "))
		}
	}

	for _, c := range pu.calls {
		in, reached := states.before(c.call)
		if !reached {
			continue
		}
		// Double release: a release site whose incoming state has the
		// released bit set and the outstanding bit clear fires on every path
		// after a first release. Deferred releases are not re-flagged against
		// themselves, but an explicit release alongside a defer is.
		for _, ob := range pu.obs {
			if c.deferred || !pu.releaseOf(c.call, ob) {
				continue
			}
			resource := pu.p.PairedSpecs[ob.spec].Resource
			if in&ob.r != 0 && in&ob.o == 0 {
				pu.diag(c.call.Pos(), "%s from %s is already released on every path reaching this second release — double release corrupts the %s accounting; remove one",
					resource, ob.acquired, resource)
			}
			if ob.deferRel {
				pu.diag(c.call.Pos(), "%s from %s is released both here and by a deferred release in the same function — the defer makes this a double release; remove one",
					resource, ob.acquired)
			}
		}
		// Use after release: a use rides the base of its receiver chain and
		// of every argument.
		if spec, isUse := pu.tab.uses[c.qual]; isUse {
			for _, e := range append([]ast.Expr{c.call.Fun}, c.call.Args...) {
				if v := rootVar(pu.info, e); in&released[v] != 0 {
					desc := pu.p.PairedSpecs[spec]
					pu.diag(c.call.Pos(), "%s in %s is rooted at %s, whose %s was already released on some path (%s) — the descriptor rides a dead endpoint and is silently lost; rebind the variable through the reconnect path first",
						c.qual, pu.key, v.Name(), desc.Resource, strings.Join(desc.Releases, " / "))
					break
				}
			}
		}
	}
}

// releaseOf reports whether call releases ob: a release of its spec whose
// receiver or some argument is one of its handles.
func (pu *prUnit) releaseOf(call *ast.CallExpr, ob *prObligation) bool {
	spec, isRel := pu.tab.releases[calleeName(pu.m, pu.pkg, call)]
	sel, method := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return isRel && spec == ob.spec && (method && prIsHandle(pu.info, sel.X, ob.objs) ||
		slices.ContainsFunc(call.Args, func(arg ast.Expr) bool { return prIsHandle(pu.info, arg, ob.objs) }))
}

// releasesIn reports whether n (descending into literals: deferred closures
// run too) contains a release of ob.
func (pu *prUnit) releasesIn(n ast.Node, ob *prObligation) bool {
	return containsNode(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		return ok && pu.releaseOf(call, ob)
	})
}

// prIsHandle reports whether e *is* one of the obligation's handles —
// possibly behind parentheses, type conversions (via.MemHandle(req.rmem)
// roots at req.rmem), or a unary & — as opposed to merely mentioning one (a
// method call on the handle, an arithmetic use).
func prIsHandle(info *types.Info, e ast.Expr, objs map[types.Object]bool) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		return len(x.Args) == 1 && info.Types[x.Fun].IsType() && prIsHandle(info, x.Args[0], objs)
	case *ast.UnaryExpr:
		return x.Op == token.AND && prIsHandle(info, x.X, objs)
	}
	return objs[identObj(info, e)]
}

// prMentions reports whether any handle ident occurs inside n.
func prMentions(info *types.Info, n ast.Node, objs map[types.Object]bool) bool {
	return containsNode(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && objs[info.Uses[id]]
	})
}

// compositeStores files composite-literal fields capturing a handle —
// core's newChannel writes Channel{Vi: vi}, parking the VI CreateViCQ made in
// (Channel).Vi — and reports whether it found any.
func (pu *prUnit) compositeStores(e ast.Expr, ob *prObligation) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok || !prIsHandle(pu.info, kv.Value, ob.objs) {
				continue
			}
			key, _ := kv.Key.(*ast.Ident)
			if fv, ok := pu.info.Uses[key].(*types.Var); ok && fv.IsField() {
				if fk := fieldOfType(pu.m, pu.info.TypeOf(lit), key.Name); fk != "" {
					pu.store(ob, fk, kv.Pos())
					found = true
				}
			}
		}
		return true
	})
	return found
}

// prNonNilBranch matches an if over "x != nil" / "x == nil" for a variable x
// and returns x with the branch taken when it is not nil (nil: no else).
func prNonNilBranch(info *types.Info, ifs *ast.IfStmt) (types.Object, ast.Stmt) {
	be, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return nil, nil
	}
	x, y := identObj(info, be.X), identObj(info, be.Y)
	if null := types.Universe.Lookup("nil"); x == null {
		x = y
	} else if y != null {
		return nil, nil
	}
	if be.Op == token.EQL {
		return x, ifs.Else
	}
	return x, ifs.Body
}
