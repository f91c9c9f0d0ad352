package analysis

// callgraph.go is the whole-program interprocedural layer: an index of every
// declared function in the module, a call graph over them, and the
// per-function walk maporder uses. hotalloc's reachability walk is built on
// the graph.
//
// Resolution is deliberately conservative in the direction that loses paths
// rather than inventing them, with one exception that adds paths: a call
// through a module-declared interface (core.Manager is the live example —
// mpi drives the connection managers through it) fans out to *every* module
// type whose method set satisfies the interface. Calls through function
// values, stdlib interfaces, or reflection resolve to nothing and are
// reported as unknown edges; the analyzers built on the graph treat an
// unknown callee as having no effects, which can under-report but never
// fabricates a diagnostic.
//
// Function literals are folded into their enclosing declaration: a literal
// runs in its own activation (often at a later virtual time), but the code
// it executes still belongs to the declaring function for reachability
// purposes — a callback scheduled by F that transmits a frame is a transmit
// F's callers can reach. The graph is about *what* can run, not *when*.
//
// The graph is built once per Module and cached (Module.Interproc), so the
// interprocedural analyzers — and the stale-policy sweep — share one index
// instead of re-deriving it per rule.

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// IPFunc is one declared function in the interprocedural index.
type IPFunc struct {
	Key   string // policy-qualified name ("internal/via.(Port).dispatch")
	Pkg   *Package
	Decl  *ast.FuncDecl
	Units []funcUnit // the declaration, or every same-key one (init)
}

// IPCall is one resolved call site inside a function.
type IPCall struct {
	Call    *ast.CallExpr
	Callees []string // sorted keys of possible module-internal targets; empty = unknown or external
}

// Interproc is the cached whole-program view.
type Interproc struct {
	mod   *Module
	Funcs map[string]*IPFunc // by Key
	Keys  []string           // sorted, for deterministic iteration

	calls map[string][]IPCall // per function, source order (literals included)
}

// Interproc returns the module's interprocedural index, building it on first
// use. All analyzers in one run share the same graph.
func (m *Module) Interproc() *Interproc {
	if m.inter == nil {
		m.inter = buildInterproc(m)
	}
	return m.inter
}

// eachUnit visits every declaration in the module in sorted key order,
// skipping functions the policy excuses from rule.
func (ip *Interproc) eachUnit(p *Policy, rule string, visit func(f *IPFunc, u funcUnit)) {
	for _, key := range ip.Keys {
		if p.excused(rule, key) {
			continue
		}
		f := ip.Funcs[key]
		for _, u := range f.Units {
			visit(f, u)
		}
	}
}

// Calls returns the call sites of the named function in source order.
func (ip *Interproc) Calls(key string) []IPCall { return ip.calls[key] }

// buildInterproc indexes every function declaration and resolves every call
// site in the module.
func buildInterproc(m *Module) *Interproc {
	ip := &Interproc{
		mod:   m,
		Funcs: map[string]*IPFunc{},
		calls: map[string][]IPCall{},
	}
	// Pass 1: the function index, and the method-set table interface
	// resolution draws from.
	var namedTypes []*types.Named
	for _, pkg := range m.Pkgs {
		if pkg.Info == nil || pkg.Types == nil {
			continue
		}
		for _, file := range pkg.Files {
			for _, u := range funcUnits(pkg, file) {
				if f := ip.Funcs[u.name]; f != nil {
					// A same-key decl: multiple init functions share "pkg.init".
					f.Units = append(f.Units, u)
					continue
				}
				ip.Funcs[u.name] = &IPFunc{Key: u.name, Pkg: pkg, Decl: u.decl, Units: []funcUnit{u}}
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok {
					if _, isIface := named.Underlying().(*types.Interface); !isIface {
						namedTypes = append(namedTypes, named)
					}
				}
			}
		}
	}
	for key := range ip.Funcs {
		ip.Keys = append(ip.Keys, key)
	}
	sort.Strings(ip.Keys)

	// Pass 2: resolve call sites.
	for _, key := range ip.Keys {
		f := ip.Funcs[key]
		var sites []IPCall
		// Each declaration body contains its literals, so walking the units
		// collects every call site exactly once.
		for _, u := range f.Units {
			ast.Inspect(u.decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sites = append(sites, IPCall{
					Call:    call,
					Callees: resolveCallees(m, f.Pkg, call, namedTypes),
				})
				return true
			})
		}
		ip.calls[key] = sites
	}
	return ip
}

// funcUnit is one declared function body under the policy-qualified name
// that indexes it.
type funcUnit struct {
	name string
	decl *ast.FuncDecl
}

// funcUnits collects the declared function bodies of one file in source
// order.
func funcUnits(pkg *Package, file *ast.File) []funcUnit {
	var units []funcUnit
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			units = append(units, funcUnit{name: enclosingFuncName(pkg, file, fd.Name.Pos()), decl: fd})
		}
	}
	return units
}

// resolveCallees maps one call expression to the module functions it may
// invoke. Static calls resolve to one target; calls through a module-declared
// interface fan out to every module type implementing it; everything else
// (function values, stdlib targets, builtins) resolves to nothing.
func resolveCallees(m *Module, pkg *Package, call *ast.CallExpr, namedTypes []*types.Named) []string {
	obj := calleeObject(pkg.Info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if recv := sig.Recv(); recv != nil {
		if _, isIface := recv.Type().Underlying().(*types.Interface); isIface {
			return resolveInterfaceCall(m, fn, namedTypes)
		}
	}
	key := relQualified(m.Path, objectQualifiedName(fn))
	if key == "" || !inModule(m, fn.Pkg()) {
		return nil
	}
	return []string{key}
}

// resolveInterfaceCall fans an interface-method call out to every module
// type whose method set satisfies the method's interface.
func resolveInterfaceCall(m *Module, ifaceMethod *types.Func, namedTypes []*types.Named) []string {
	recv := ifaceMethod.Type().(*types.Signature).Recv().Type()
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	set := map[string]bool{}
	for _, named := range namedTypes {
		var impl types.Type
		switch {
		case types.Implements(named, iface):
			impl = named
		case types.Implements(types.NewPointer(named), iface):
			impl = types.NewPointer(named)
		default:
			continue
		}
		target, _, _ := types.LookupFieldOrMethod(impl, true, named.Obj().Pkg(), ifaceMethod.Name())
		tf, ok := target.(*types.Func)
		if !ok || !inModule(m, tf.Pkg()) {
			continue
		}
		if key := relQualified(m.Path, objectQualifiedName(tf)); key != "" {
			set[key] = true
		}
	}
	var keys []string
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// isEventEdge reports whether call is the scheduler's dispatch of an event
// object: a method call through a Policy.EventEdges interface.
func isEventEdge(m *Module, p *Policy, pkg *Package, call *ast.CallExpr) bool {
	fn, ok := calleeObject(pkg.Info, call).(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named, ok := recv.Type().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	_, edge := p.EventEdges[relQualified(m.Path, named.Obj().Pkg().Path())+"."+named.Obj().Name()]
	return edge
}

// inModule reports whether pkg belongs to the module under analysis.
func inModule(m *Module, pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	return pkg.Path() == m.Path || strings.HasPrefix(pkg.Path(), m.Path+"/")
}

// resolveSiteCallees returns the resolved callees of one call expression,
// looked up in the shared per-function site list.
func resolveSiteCallees(ip *Interproc, key string, call *ast.CallExpr) []string {
	for _, site := range ip.Calls(key) {
		if site.Call == call {
			return site.Callees
		}
	}
	return nil
}
