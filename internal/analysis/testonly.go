package analysis

import (
	"go/types"
	"slices"
	"strings"
)

// Testonly reports an exported function, method, type, constant or
// package-level variable that no non-test file of the module references:
// production code that only tests call. References come from every
// loaded package's Info.Uses and Info.Selections, so commands, examples
// and the root package count as callers. Struct fields are never
// reported, nor is a method its type needs to satisfy an interface
// (String, Error, ServeHTTP, an Emit called through sweep.Emitter): those
// calls are dynamic and never appear in Uses.
var Testonly = &Analyzer{
	Name: "testonly",
	Doc:  "exported declarations need a caller outside test files",
	Run:  runTestonly,
}

func runTestonly(pass *Pass) {
	pass.Module.index()
	prefix := pass.Pkg.Types.Path() + "."
	for id, obj := range pass.Pkg.Info.Defs {
		k := objKey(obj)
		if !id.IsExported() || k == "" || pass.Module.used[k] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil &&
			pass.Module.satisfiesInterface(fn) {
			continue
		}
		pass.Reportf(id.Pos(), "%s.%s is exported but only tests reference it; delete it, move it into a _test.go file, or annotate it //qosrma:allow(testonly) <reason>",
			pass.Pkg.Types.Name(), strings.TrimPrefix(k, prefix))
	}
}

// objKey names a package-level object or a method of a named type as
// path.Name or path.Type.Name. A package's own source-checked objects and
// the export-data objects its importers see are distinct values for one
// declaration; the key matches them. Fields, locals and interface methods
// get "".
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path() + "."
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		named, ok := deref(fn.Signature().Recv().Type()).(*types.Named)
		if !ok || types.IsInterface(named) {
			return ""
		}
		return path + named.Origin().Obj().Name() + "." + obj.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return path + obj.Name()
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// A Module is every package one qosrmavet run loads. The testonly check
// needs all of their references to judge any one package, so index
// gathers them once.
type Module struct {
	Pkgs []*Package

	used   map[string]bool     // objKeys some non-test file references
	ifaces map[string][]string // every non-empty interface's method keys
}

// index fills used and ifaces. Only non-test files are type-checked, so
// every entry of Uses and Selections is a production reference.
func (m *Module) index() {
	if m.used != nil {
		return
	}
	m.used, m.ifaces = map[string]bool{}, map[string][]string{}
	addIface := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
			var keys []string
			for fn := range iface.Methods() {
				keys = append(keys, methodKey(fn))
			}
			slices.Sort(keys)
			m.ifaces[strings.Join(keys, ";")] = keys
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range m.Pkgs {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		for _, obj := range pkg.Info.Uses {
			m.used[objKey(obj)] = true
		}
		for _, sel := range pkg.Info.Selections {
			m.used[objKey(sel.Obj())] = true
		}
	}
}

// satisfiesInterface reports whether method fn belongs to an interface
// its receiver's pointer type implements, among every interface the
// module declares, spells out or imports. Methods are compared by
// methodKey, which holds across type-checker instances.
func (m *Module) satisfiesInterface(fn *types.Func) bool {
	mset := types.NewMethodSet(types.NewPointer(deref(fn.Signature().Recv().Type())))
	have := map[string]bool{}
	for i := range mset.Len() {
		have[methodKey(mset.At(i).Obj().(*types.Func))] = true
	}
	for _, keys := range m.ifaces {
		missing := slices.ContainsFunc(keys, func(k string) bool { return !have[k] })
		if !missing && slices.Contains(keys, methodKey(fn)) {
			return true
		}
	}
	return false
}

// methodKey spells a method as its name and its parameter and result
// types, qualified by package path, whatever the parameters are called.
func methodKey(fn *types.Func) string {
	sig := fn.Signature()
	key := fn.Name()
	for _, t := range []*types.Tuple{sig.Params(), sig.Results()} {
		key += "("
		for v := range t.Variables() {
			key += types.TypeString(v.Type(), (*types.Package).Path) + ","
		}
		key += ")"
	}
	if sig.Variadic() {
		key += "..."
	}
	return key
}
