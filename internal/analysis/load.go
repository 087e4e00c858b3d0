package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package plus the syntax the analyzers walk.
// Test files are parsed but not type-checked: the compiler's export data
// describes only the non-test half of a package, and the only check that
// reads test sources (the noalloc AllocsPerRun cross-check) is purely
// syntactic.
type Package struct {
	Path      string // import path
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File // type-checked sources
	TestFiles []*ast.File // parsed only
	Types     *types.Package
	Info      *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Export       string
	Standard     bool
	Module       *struct {
		Path string
		Main bool
	}
}

// goList shells out to `go list -deps -export` for the given patterns.
// -export makes the go tool compile the dependency graph and report the
// export-data file for every package, which is how imports resolve during
// type checking: exact compiled types, no reimplementation of the build
// system, and no dependency outside the standard toolchain.
func goList(root string, patterns ...string) ([]listPkg, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles,Export,Standard,Module",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.Bytes())
	}
	dec := json.NewDecoder(&out)
	var pkgs []listPkg
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportLookup builds the importer callback that opens each dependency's
// compiled export data.
func exportLookup(list []listPkg) func(path string) (io.ReadCloser, error) {
	exports := make(map[string]string, len(list))
	for _, p := range list {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
}

// LoadModule type-checks every package of the module rooted at root and
// returns them sorted by import path.
func LoadModule(root string) ([]*Package, error) {
	list, err := goList(root, "./...")
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(list))
	var out []*Package
	for _, lp := range list {
		if lp.Standard || lp.Module == nil || !lp.Module.Main {
			continue
		}
		pkg, err := checkPkg(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

func parseAll(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func checkPkg(fset *token.FileSet, imp types.Importer, lp listPkg) (*Package, error) {
	files, err := parseAll(fset, lp.Dir, lp.GoFiles)
	if err != nil {
		return nil, err
	}
	var testFiles []*ast.File
	for _, group := range [][]string{lp.TestGoFiles, lp.XTestGoFiles} {
		fs, err := parseAll(fset, lp.Dir, group)
		if err != nil {
			return nil, err
		}
		testFiles = append(testFiles, fs...)
	}
	return checkFiles(fset, imp, lp.ImportPath, lp.Dir, files, testFiles)
}

func checkFiles(fset *token.FileSet, imp types.Importer, path, dir string, files, testFiles []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{
		Path:      path,
		Dir:       dir,
		Fset:      fset,
		Files:     files,
		TestFiles: testFiles,
		Types:     tpkg,
		Info:      info,
	}, nil
}
