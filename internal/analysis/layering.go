package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// LayeringAnalyzer enforces the ARCHITECTURE.md import DAG: every package
// imports strictly downward, the shared leaves (obs, sweep) import nothing
// from the module but each other, and the restricted leaves (tcpvia, analysis) are reachable
// only from drivers.
func LayeringAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "layering",
		Doc:  "imports must follow the strictly-downward package DAG",
		Explain: `docs/ARCHITECTURE.md, "Layering contract": examples/cmd call the
workloads (bench, npb, apps), which sit on mpi, which plugs in core, which
drives via, which emits frames into fabric, which schedules on simnet. Each
package only imports downward. internal/obs is the passive observer any
layer may feed — the bus, and the folds that turn its event stream into
reports — and imports nothing from the module; internal/tcpvia is
the real-socket twin of internal/via and is reachable only from drivers.
An upward (or sideways) import collapses the layering that makes the
simulation analyzable — e.g. via reaching into mpi would let device models
observe library state that does not exist on real hardware.`,
		Run: runLayering,
	}
}

// layerOf classifies a module-relative package path. ok is false for
// packages the policy does not recognize at all.
func (p *Policy) layerOf(rel string) (layer int, ok bool) {
	if l, found := p.Layers[rel]; found {
		return l, true
	}
	if p.SharedLeaves[rel] || p.RestrictedLeaves[rel] {
		return 0, true
	}
	if rel == "" { // module root package (doc-only in viampi)
		return p.TopLayer, true
	}
	top := rel
	if i := strings.IndexByte(rel, '/'); i >= 0 {
		top = rel[:i]
	}
	if top == "cmd" || top == "examples" {
		return p.TopLayer, true
	}
	return 0, false
}

func runLayering(m *Module, p *Policy) []Diagnostic {
	var ds []Diagnostic
	for _, pkg := range m.Pkgs {
		if len(pkg.Files) == 0 {
			continue
		}
		fromLayer, known := p.layerOf(pkg.Rel)
		if !known {
			ds = append(ds, Diagnostic{
				Pos:  m.Position(pkgPos(pkg)),
				Rule: "layering",
				Message: fmt.Sprintf("package %s has no layer assignment; add it to the DAG in internal/analysis/policy.go",
					pkg.Path),
			})
			continue
		}
		for _, file := range pkg.Files {
			for _, imp := range file.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				toRel, inModule := strings.CutPrefix(path, m.Path+"/")
				if !inModule && path != m.Path {
					continue // stdlib or external; not this rule's business
				}
				if path == m.Path {
					toRel = ""
				}
				if d, bad := checkImportEdge(p, pkg, fromLayer, toRel, m.Position(imp.Pos())); bad {
					ds = append(ds, d)
				}
			}
		}
	}
	return ds
}

// checkImportEdge validates one intra-module import edge against the DAG.
func checkImportEdge(p *Policy, pkg *Package, fromLayer int, toRel string, pos token.Position) (Diagnostic, bool) {
	diag := func(format string, args ...interface{}) (Diagnostic, bool) {
		return Diagnostic{Pos: pos, Rule: "layering", Message: fmt.Sprintf(format, args...)}, true
	}
	// Leaf packages import nothing from the module, except that a leaf may
	// import a *shared* leaf (trace subscribes to the obs bus): shared
	// leaves are passive by construction, so the edge cannot reach back
	// into the simulation.
	if p.SharedLeaves[pkg.Rel] || p.RestrictedLeaves[pkg.Rel] {
		if p.SharedLeaves[toRel] && toRel != pkg.Rel {
			return Diagnostic{}, false
		}
		return diag("package %s must import only the standard library or a shared leaf, not %s", pkg.Rel, toRel)
	}
	// Shared leaves (trace) are importable from anywhere.
	if p.SharedLeaves[toRel] {
		return Diagnostic{}, false
	}
	// Restricted leaves (tcpvia, analysis) only from drivers.
	if p.RestrictedLeaves[toRel] {
		if fromLayer == p.TopLayer {
			return Diagnostic{}, false
		}
		return diag("%s is reachable only from cmd/ and examples/, not from %s", toRel, pkg.Rel)
	}
	toLayer, known := p.layerOf(toRel)
	if !known {
		return diag("import of unlayered module package %s; add it to the DAG in internal/analysis/policy.go", toRel)
	}
	if fromLayer <= toLayer {
		return diag("upward import: %s (layer %d) may not import %s (layer %d); the DAG flows examples/cmd → workloads → mpi → core → via → fabric → simnet",
			pkg.Rel, fromLayer, toRel, toLayer)
	}
	return Diagnostic{}, false
}

// pkgPos returns a stable position for package-level diagnostics: the
// package clause of the first file.
func pkgPos(pkg *Package) token.Pos {
	files := pkg.Files
	if len(files) == 0 {
		files = pkg.TestFiles
	}
	var first *ast.File
	for _, f := range files {
		if first == nil || f.Package < first.Package {
			first = f
		}
	}
	if first == nil {
		return token.NoPos
	}
	return first.Package
}
