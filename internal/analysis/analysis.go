// Package analysis implements qosrmavet, the repo-specific static
// analysis suite. The runtime walls (determinism hashes, AllocsPerRun
// pins, chaos drills) only sample the invariants this reproduction
// trades on; the analyzers here prove them over the whole tree on every
// `make lint`:
//
//   - determinism: no wall-clock, global rand, or unsorted map iteration
//     in the packages that promise bit-identical output
//   - noalloc: functions annotated //qosrma:noalloc avoid the constructs
//     that allocate, and each carries a testing.AllocsPerRun pin
//   - shardowned: types annotated //qosrma:shardowned never cross a
//     goroutine boundary via `go` statements or channel sends
//   - ctxdeadline: every outbound dial/write in the routing tier carries
//     a provable deadline
//   - exhaustive: switches over in-repo enums cover every constant
//   - testonly: exported declarations under internal/ have a caller
//     outside test files
//
// Findings are suppressed only by `//qosrma:allow(<check>) <reason>` on
// the same or the preceding line, so every exception is documented
// in-tree. The driver is stdlib-only: go/parser + go/types, with imports
// resolved through the compiler's own export data (see load.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// A Diagnostic is one finding from one check.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// An Analyzer is one named check over a single package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Pass is one analyzer applied to one package of a module.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Module   *Module
	diags    []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Annotation markers. Each must appear on a line of its own inside the
// doc comment of the declaration it governs.
const (
	annoNoalloc    = "qosrma:noalloc"
	annoShardowned = "qosrma:shardowned"
)

// hasAnnotation reports whether doc carries the marker on its own line.
func hasAnnotation(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == marker {
			return true
		}
	}
	return false
}

// allowSite is one parsed //qosrma:allow(check) reason comment. It
// suppresses diagnostics of that check on its own line and on the line
// immediately following (so the comment can sit above the flagged
// statement or trail it).
type allowSite struct {
	file  string
	line  int
	check string
}

var allowRE = regexp.MustCompile(`^qosrma:allow\((\w+)\)\s+(\S.*)`)

// allowsOf scans every comment in the package (test files included) for
// suppression sites. Only comments that begin with the marker count, so
// prose that merely mentions the grammar is ignored. Malformed allow
// comments — wrong shape or missing reason — never suppress; they are
// reported as findings of the "allow" pseudo-check so a typo cannot
// silently disable a real finding.
func allowsOf(pkg *Package) (sites []allowSite, malformed []Diagnostic) {
	files := make([]*ast.File, 0, len(pkg.Files)+len(pkg.TestFiles))
	files = append(files, pkg.Files...)
	files = append(files, pkg.TestFiles...)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "qosrma:allow") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				m := allowRE.FindStringSubmatch(text)
				if m == nil {
					malformed = append(malformed, Diagnostic{
						Pos:     pos,
						Check:   "allow",
						Message: "malformed qosrma:allow comment: want //qosrma:allow(<check>) <reason>",
					})
					continue
				}
				sites = append(sites, allowSite{file: pos.Filename, line: pos.Line, check: m[1]})
			}
		}
	}
	return sites, malformed
}

func suppressed(d Diagnostic, sites []allowSite) bool {
	for _, s := range sites {
		if s.check == d.Check && s.file == d.Pos.Filename &&
			(s.line == d.Pos.Line || s.line == d.Pos.Line-1) {
			return true
		}
	}
	return false
}
