package analysis

import (
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// StalePolicy returns one message per policy entry that no longer matches
// any code in the module: an excused function that was renamed or deleted,
// a package that no longer exists, a tag field that was renamed.
// A suppression that outlives its justification is a hole in the invariant it
// excuses, so the driver warns on these and the selfcheck test fails on them.
//
// The walk is generic: every Policy table declares what its entries name in
// a `subject` tag, and every rule declares what its Exceptions name in
// Analyzer.Subject, so a new table or rule is swept without an edit here.
func StalePolicy(m *Module, p *Policy) []string {
	var stale []string
	check := func(table, key, kind string) {
		if !subjectExists(m, kind, key) {
			stale = append(stale, fmt.Sprintf("policy.%s[%q] matches no %s in the module; delete the entry or fix the reference", table, key, kind))
		}
	}
	walkSubjects(reflect.ValueOf(p).Elem(), "", check)
	for rule, excused := range p.Exceptions {
		table := fmt.Sprintf("Exceptions[%q]", rule)
		a := ByName(rule)
		if a == nil || a.Subject == "" {
			stale = append(stale, fmt.Sprintf("policy.%s names no rule that takes exceptions; delete the table", table))
			continue
		}
		for key := range excused {
			check(table, key, a.Subject)
		}
	}
	sort.Strings(stale)
	return stale
}

// walkSubjects visits every module reference held in the tagged tables of
// one policy struct: map keys, string map values when the tag names a
// second kind after "=", string slice elements, tagged strings, and —
// recursively — the fields of struct slices (PairedSpecs, WireKinds).
func walkSubjects(v reflect.Value, prefix string, check func(table, key, kind string)) {
	for i := 0; i < v.NumField(); i++ {
		field, fv := v.Type().Field(i), v.Field(i)
		table := prefix + field.Name
		if fv.Kind() == reflect.Slice && field.Type.Elem().Kind() == reflect.Struct {
			for j := 0; j < fv.Len(); j++ {
				walkSubjects(fv.Index(j), fmt.Sprintf("%s[%d].", table, j), check)
			}
			continue
		}
		tag, tagged := field.Tag.Lookup("subject")
		keyKind, valKind, _ := strings.Cut(tag, "=")
		switch {
		case fv.Kind() == reflect.String && tagged:
			check(table, fv.String(), keyKind)
		case fv.Kind() != reflect.Map && fv.Kind() != reflect.Slice, tag == "-":
		case !tagged:
			panic("analysis: Policy." + table + " declares no subject tag, so the stale sweep cannot check it")
		case fv.Kind() == reflect.Slice:
			for j := 0; j < fv.Len(); j++ {
				check(table, fv.Index(j).String(), keyKind)
			}
		default:
			for it := fv.MapRange(); it.Next(); {
				check(table, it.Key().String(), keyKind)
				if valKind != "" {
					check(table, it.Value().String(), valKind)
				}
			}
		}
	}
}

// subjectExists reports whether key names a live module entity of the given
// subject kind.
func subjectExists(m *Module, kind, key string) bool {
	switch kind {
	case subjFunc:
		return m.Interproc().Funcs[key] != nil
	case subjPkg:
		return lookupRel(m, key) != nil
	case subjConst:
		_, ok := scopeLookup(m, key).(*types.Const)
		return ok
	case subjType:
		_, ok := scopeLookup(m, key).(*types.TypeName)
		return ok
	case subjField:
		return resolveField(m, key) != nil
	}
	panic("analysis: unknown policy subject kind " + kind)
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

// resolveField returns the *types.Var for "rel/pkg.(Owner).field".
func resolveField(m *Module, key string) *types.Var {
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

// lookupRel resolves a module-relative package path.
func lookupRel(m *Module, rel string) *Package {
	if rel == "" {
		return m.Lookup(m.Path)
	}
	return m.Lookup(m.Path + "/" + rel)
}
