package analysis

import (
	"sort"
	"strings"
)

// Suite is every analyzer qosrmavet runs, in report order.
var Suite = []*Analyzer{Determinism, Noalloc, Shardowned, Ctxdeadline, Exhaustive, Testonly}

// deterministicPkgs are the packages that promise bit-identical output
// (paper tables, replay hashes, cross-codec equivalence); the
// determinism check applies only to them.
var deterministicPkgs = map[string]bool{
	"rmasim":      true,
	"cluster":     true,
	"sweep":       true,
	"simdb":       true,
	"wire":        true,
	"sched":       true,
	"equilibrium": true,
}

// inScope applies each check's package scope. Scope lives here, in the
// driver, not in the analyzers — so the golden fixtures exercise every
// analyzer unscoped.
func inScope(check, path string) bool {
	switch check {
	case "determinism":
		return deterministicPkgs[path[strings.LastIndex(path, "/")+1:]]
	case "ctxdeadline":
		return strings.HasSuffix(path, "internal/route")
	case "testonly":
		// Commands, examples and the root package (the library's public
		// API) are callers, not candidates.
		return strings.Contains(path, "/internal/")
	}
	return true
}

// Run executes the named checks (nil = all) over pkgs, applies scopes
// and //qosrma:allow suppressions, and returns surviving diagnostics
// sorted by position.
func Run(pkgs []*Package, checks []string) []Diagnostic {
	sel := map[string]bool{}
	for _, c := range checks {
		sel[strings.TrimSpace(c)] = true
	}
	mod := &Module{Pkgs: pkgs}
	var out []Diagnostic
	for _, pkg := range pkgs {
		sites, malformed := allowsOf(pkg)
		out = append(out, malformed...)
		for _, a := range Suite {
			if len(sel) > 0 && !sel[a.Name] {
				continue
			}
			if !inScope(a.Name, pkg.Path) {
				continue
			}
			out = append(out, runOne(mod, pkg, a, sites)...)
		}
	}
	sortDiags(out)
	return out
}

// runOne applies a single analyzer to a single package of mod with
// suppression but without scoping (the fixture tests call it directly).
func runOne(mod *Module, pkg *Package, a *Analyzer, sites []allowSite) []Diagnostic {
	pass := &Pass{Analyzer: a, Pkg: pkg, Module: mod}
	a.Run(pass)
	var out []Diagnostic
	for _, d := range pass.diags {
		if !suppressed(d, sites) {
			out = append(out, d)
		}
	}
	return out
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
}
