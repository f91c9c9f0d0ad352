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
// a package that no longer exists, a constant or type that was renamed.
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
	walkSubjects(reflect.ValueOf(p).Elem(), check)
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
// second kind after "=", and string slice elements. A table without a
// subject tag, and a tag on a field that is no table, panic: the sweep would
// pass over them.
func walkSubjects(v reflect.Value, check func(table, key, kind string)) {
	for i := 0; i < v.NumField(); i++ {
		field, fv := v.Type().Field(i), v.Field(i)
		table := field.Name
		tag, tagged := field.Tag.Lookup("subject")
		keyKind, valKind, _ := strings.Cut(tag, "=")
		switch {
		case tag == "-":
		case fv.Kind() != reflect.Map && fv.Kind() != reflect.Slice:
			if tagged {
				panic("analysis: Policy." + table + " has a subject tag but is no map or slice, so the stale sweep cannot check it")
			}
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

// lookupRel resolves a module-relative package path.
func lookupRel(m *Module, rel string) *Package {
	if rel == "" {
		return m.Lookup(m.Path)
	}
	return m.Lookup(m.Path + "/" + rel)
}
