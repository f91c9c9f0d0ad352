package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// StalePolicy returns one message per policy entry that no longer matches
// any code in the module: an allowlisted function that was renamed or
// deleted, an excused package that no longer exists or no longer contains
// what it was excused for, a lock-order edge naming a removed mutex. A
// suppression that outlives its justification is a hole in the invariant it
// excuses, so the driver warns on these and the selfcheck test fails on them.
//
// Only module-referencing entries are checked. Name lists that refer to the
// standard library (WallClockBanned, RandConstructors) and numeric
// configuration (Layers, TopLayer) have nothing to go stale against.
func StalePolicy(m *Module, p *Policy) []string {
	ip := m.Interproc()
	var stale []string
	report := func(list, key, kind string) {
		stale = append(stale, fmt.Sprintf("policy.%s[%q] matches no %s in the module; delete the entry or fix the reference", list, key, kind))
	}

	funcExists := func(key string) bool { return ip.Funcs[key] != nil }
	pkgExists := func(rel string) bool {
		if rel == "" {
			return m.Lookup(m.Path) != nil
		}
		return m.Lookup(m.Path+"/"+rel) != nil
	}

	checkFuncs := func(list string, keys []string) {
		for _, k := range keys {
			if !funcExists(k) {
				report(list, k, "function")
			}
		}
	}
	checkFuncs("MapOrderAllow", sortedStrKeys(p.MapOrderAllow))
	checkFuncs("ChargeRequired", sortedBoolKeys(p.ChargeRequired))
	checkFuncs("ChargeFuncs", sortedBoolKeys(p.ChargeFuncs))
	checkFuncs("ChargeExempt", sortedStrKeys(p.ChargeExempt))
	checkFuncs("ChargeFlowExempt", sortedStrKeys(p.ChargeFlowExempt))
	checkFuncs("ExhaustiveStrict", sortedStrKeys(p.ExhaustiveStrict))
	checkFuncs("WaitWakeWakers", sortedBoolKeys(p.WaitWakeWakers))
	checkFuncs("WaitWakeAllow", sortedStrKeys(p.WaitWakeAllow))
	checkFuncs("WakeReachAllow", sortedStrKeys(p.WakeReachAllow))
	checkFuncs("LockExempt", sortedStrKeys(p.LockExempt))
	checkFuncs("HotPaths", sortedStrKeys(p.HotPaths))
	checkFuncs("ColdCalls", sortedBoolKeys(p.ColdCalls))
	checkFuncs("ProtocolDispatch", sortedStrKeys(p.ProtocolDispatch))
	for _, spec := range p.PairedSpecs {
		checkFuncs("PairedSpecs."+spec.Resource, spec.Acquires)
		checkFuncs("PairedSpecs."+spec.Resource, spec.Releases)
	}
	checkFuncs("PairedAllow", sortedStrKeys(p.PairedAllow))
	checkFuncs("SeqCheckClose", sortedStrKeys(p.SeqCheckClose))
	checkFuncs("SeqCheckSend", sortedStrKeys(p.SeqCheckSend))
	checkFuncs("SeqCheckAllow", sortedStrKeys(p.SeqCheckAllow))

	for _, rel := range sortedStrKeys(p.DeterminismExempt) {
		if !pkgExists(rel) {
			report("DeterminismExempt", rel, "package")
		}
	}
	for _, rel := range sortedBoolKeys(p.GoStmtAllowed) {
		if !hasGoStmt(lookupRel(m, rel)) {
			report("GoStmtAllowed", rel, "package with a go statement")
		}
	}
	for _, rel := range sortedStrKeys(p.MapOrderStrict) {
		if !pkgExists(rel) {
			report("MapOrderStrict", rel, "package")
		}
	}
	for _, rel := range sortedBoolKeys(p.WaitWakeScope) {
		if !pkgExists(rel) {
			report("WaitWakeScope", rel, "package")
		}
	}
	for _, rel := range sortedBoolKeys(p.ChargeRootPkgs) {
		if !pkgExists(rel) {
			report("ChargeRootPkgs", rel, "package")
		}
	}

	for _, key := range sortedStrKeys(p.EnumExclude) {
		if !constExists(m, key) {
			report("EnumExclude", key, "constant")
		}
	}
	for _, key := range sortedStrKeys(p.ProtocolNeverSent) {
		if !constExists(m, key) {
			report("ProtocolNeverSent", key, "constant")
		}
	}

	for _, key := range sortedStrKeys(p.TagFields) {
		if !fieldExists(m, key) {
			report("TagFields", key, "struct field")
		}
		if anchor := p.TagFields[key]; !constExists(m, anchor) {
			report("TagFields", anchor, "anchor constant")
		}
	}
	for _, key := range sortedStrKeys(p.LeafLocks) {
		if !fieldExists(m, key) {
			report("LeafLocks", key, "struct field")
		}
	}
	var stateKeys []string
	for k := range p.WaitWakeStates {
		stateKeys = append(stateKeys, k)
	}
	sort.Strings(stateKeys)
	for _, key := range stateKeys {
		if !typeExists(m, key) {
			report("WaitWakeStates", key, "type")
		}
	}
	for _, key := range sortedStrKeys(p.FSMStates) {
		if !typeExists(m, key) {
			report("FSMStates", key, "type")
		}
		if field := p.FSMStates[key]; !fieldExists(m, field) {
			report("FSMStates", field, "struct field")
		}
	}
	for _, edge := range sortedStrKeys(p.LockOrderAllow) {
		from, to, ok := strings.Cut(edge, " -> ")
		if !ok || !fieldExists(m, from) || !fieldExists(m, to) {
			report("LockOrderAllow", edge, "pair of mutex fields")
		}
	}

	sort.Strings(stale)
	return stale
}

// hasGoStmt reports whether any non-test file of pkg starts a goroutine.
func hasGoStmt(pkg *Package) bool {
	found := false
	if pkg != nil {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				_, isGo := n.(*ast.GoStmt)
				found = found || isGo
				return !found
			})
		}
	}
	return found
}

// constExists reports whether "rel/pkg.Name" names a package-level constant.
func constExists(m *Module, key string) bool {
	obj := scopeLookup(m, key)
	_, ok := obj.(*types.Const)
	return ok
}

// typeExists reports whether "rel/pkg.Name" names a package-level type.
func typeExists(m *Module, key string) bool {
	obj := scopeLookup(m, key)
	_, ok := obj.(*types.TypeName)
	return ok
}

// scopeLookup resolves "rel/pkg.Name" in the named package's scope.
func scopeLookup(m *Module, key string) types.Object {
	dot := strings.LastIndex(key, ".")
	if dot < 0 {
		return nil
	}
	pkg := lookupRel(m, key[:dot])
	if pkg == nil || pkg.Types == nil {
		return nil
	}
	return pkg.Types.Scope().Lookup(key[dot+1:])
}

// fieldExists reports whether "rel/pkg.(Owner).field" names a declared
// struct field.
func fieldExists(m *Module, key string) bool {
	open := strings.Index(key, ".(")
	end := strings.Index(key, ").")
	if open < 0 || end < open {
		return false
	}
	pkg := lookupRel(m, key[:open])
	owner, field := key[open+2:end], key[end+2:]
	if pkg == nil || pkg.Types == nil {
		return false
	}
	tn, ok := pkg.Types.Scope().Lookup(owner).(*types.TypeName)
	if !ok {
		return false
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == field {
			return true
		}
	}
	return false
}

// lookupRel resolves a module-relative package path.
func lookupRel(m *Module, rel string) *Package {
	if rel == "" {
		return m.Lookup(m.Path)
	}
	return m.Lookup(m.Path + "/" + rel)
}

func sortedStrKeys(set map[string]string) []string {
	var keys []string
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedBoolKeys(set map[string]bool) []string {
	var keys []string
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
