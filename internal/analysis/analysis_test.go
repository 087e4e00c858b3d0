package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// quotedRE matches the quoted regexes of a `want "..."` (or backquoted)
// expectation comment.
var quotedRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// expectations parses the fixture's `want` comments into per-line
// expected-diagnostic regexes, keyed by "file:line".
func expectations(t *testing.T, pkg *Package) map[string][]*regexp.Regexp {
	t.Helper()
	out := map[string][]*regexp.Regexp{}
	files := append(append([]*ast.File{}, pkg.Files...), pkg.TestFiles...)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				for _, q := range quotedRE.FindAllString(c.Text[idx:], -1) {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: unquoting %s: %v", key, q, err)
					}
					re, err := regexp.Compile(s)
					if err != nil {
						t.Fatalf("%s: compiling %q: %v", key, s, err)
					}
					out[key] = append(out[key], re)
				}
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("fixture has no want comments")
	}
	return out
}

// TestFixtures runs each analyzer over its golden fixture package and
// requires an exact match: every diagnostic answers a want comment on
// its line, and every want comment is answered.
func TestFixtures(t *testing.T) {
	byName := map[string]*Analyzer{}
	for _, a := range Suite {
		byName[a.Name] = a
	}
	for _, name := range []string{"determinism", "noalloc", "shardowned", "ctxdeadline", "exhaustive", "testonly"} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", name)
			pkg, err := LoadDir("../..", dir, "qosrma/internal/analysis/testdata/src/"+name)
			if err != nil {
				t.Fatal(err)
			}
			want := expectations(t, pkg)
			sites, malformed := allowsOf(pkg)
			diags := append(malformed, runOne(&Module{Pkgs: []*Package{pkg}}, pkg, byName[name], sites)...)
			for _, d := range diags {
				key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
				matched := false
				res := want[key]
				for i, re := range res {
					if re != nil && re.MatchString(d.Message) {
						res[i] = nil
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic at %s: [%s] %s", key, d.Check, d.Message)
				}
			}
			for key, res := range want {
				for _, re := range res {
					if re != nil {
						t.Errorf("%s: expected diagnostic matching %q, got none", key, re)
					}
				}
			}
		})
	}
}

// TestModuleClean loads the real module and requires the full suite to
// report nothing: the tree stays at a zero-finding baseline, with every
// exception documented in-source via qosrma:allow.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module type-check in -short mode")
	}
	pkgs, err := LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	diags := Run(pkgs, nil)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestAllowParsing pins the suppression grammar: a well-formed allow
// yields a site, and malformed shapes surface as findings instead of
// silently suppressing.
func TestAllowParsing(t *testing.T) {
	for _, tc := range []struct {
		text  string
		check string // "" = malformed
	}{
		{"qosrma:allow(noalloc) arena grows once", "noalloc"},
		{"qosrma:allow(determinism) counting is order-insensitive", "determinism"},
		{"qosrma:allow(noalloc)", ""},       // missing reason
		{"qosrma:allow noalloc reason", ""}, // missing parens
		{"qosrma:allow(noalloc)   ", ""},    // whitespace is not a reason
	} {
		m := allowRE.FindStringSubmatch(tc.text)
		switch {
		case tc.check == "" && m != nil:
			t.Errorf("%q: parsed as allow(%s), want malformed", tc.text, m[1])
		case tc.check != "" && m == nil:
			t.Errorf("%q: malformed, want allow(%s)", tc.text, tc.check)
		case tc.check != "" && m[1] != tc.check:
			t.Errorf("%q: parsed check %q, want %q", tc.text, m[1], tc.check)
		}
	}
}

// LoadDir type-checks the single fixture package in dir under the given
// import path (used by the golden-diagnostic tests). modroot anchors the
// `go list` run that resolves the fixture's imports to export data.
func LoadDir(modroot, dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var srcs, tests []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, "_") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			tests = append(tests, name)
		} else {
			srcs = append(srcs, name)
		}
	}
	fset := token.NewFileSet()
	files, err := parseAll(fset, dir, srcs)
	if err != nil {
		return nil, err
	}
	testFiles, err := parseAll(fset, dir, tests)
	if err != nil {
		return nil, err
	}
	imports := map[string]bool{}
	for _, f := range files {
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return nil, err
			}
			imports[p] = true
		}
	}
	var imp types.Importer
	if len(imports) > 0 {
		var pats []string
		for p := range imports {
			pats = append(pats, p)
		}
		sort.Strings(pats)
		list, err := goList(modroot, pats...)
		if err != nil {
			return nil, err
		}
		imp = importer.ForCompiler(fset, "gc", exportLookup(list))
	}
	return checkFiles(fset, imp, path, dir, files, testFiles)
}
