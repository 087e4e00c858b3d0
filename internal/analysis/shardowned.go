package analysis

import (
	"go/ast"
	"go/types"
)

// Shardowned enforces the //qosrma:shardowned contract: an annotated
// type (shard LRU, admission filter, scratch arena) is guarded by its
// owner — a shard's values by the shard's mutex, a request stream's
// scratch by being used on that stream's goroutine — and must never
// cross a goroutine boundary. The analyzer flags any `go` statement
// whose call carries an owned value (as receiver or argument) and any
// channel send whose payload carries one. Ownership is shallow: a value
// carries type T when its type is T, *T, []T, [N]T, chan T, or a map
// over T — but not when T is buried inside another named struct, because
// handing a whole owner (which guards its scratch) to a goroutine is
// exactly the sanctioned pattern.
//
// Annotated types must also be unexported: the compiler then guarantees
// no other package can reference them at all, which closes the
// cross-package half of the ownership argument without whole-program
// analysis.
var Shardowned = &Analyzer{
	Name: "shardowned",
	Doc:  "forbid //qosrma:shardowned values from crossing goroutine boundaries",
	Run:  runShardowned,
}

func runShardowned(pass *Pass) {
	info := pass.Pkg.Info
	owned := map[*types.TypeName]bool{}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				if !hasAnnotation(doc, annoShardowned) {
					continue
				}
				tn, ok := info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				owned[tn] = true
				if tn.Exported() {
					pass.Reportf(ts.Pos(), "shardowned type %s must be unexported; exporting it breaks single-worker ownership", tn.Name())
				}
			}
		}
	}
	if len(owned) == 0 {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if tn := callCarries(info, n.Call, owned); tn != nil {
					pass.Reportf(n.Pos(), "go statement carries shard-owned type %s to another goroutine", tn.Name())
				}
			case *ast.SendStmt:
				if tn := carries(info.TypeOf(n.Value), owned); tn != nil {
					pass.Reportf(n.Pos(), "channel send shares shard-owned type %s across goroutines", tn.Name())
				}
			}
			return true
		})
	}
}

// callCarries inspects a go-statement's call: the receiver (for method
// expressions) and every argument.
func callCarries(info *types.Info, call *ast.CallExpr, owned map[*types.TypeName]bool) *types.TypeName {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if tn := carries(info.TypeOf(sel.X), owned); tn != nil {
			return tn
		}
	}
	for _, arg := range call.Args {
		if tn := carries(info.TypeOf(arg), owned); tn != nil {
			return tn
		}
	}
	return nil
}

// carries unwraps pointers, slices, arrays, channels and maps — but not
// named struct fields — looking for an owned type.
func carries(t types.Type, owned map[*types.TypeName]bool) *types.TypeName {
	for {
		switch u := t.(type) {
		case *types.Named:
			if owned[u.Obj()] {
				return u.Obj()
			}
			return nil
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Chan:
			t = u.Elem()
		case *types.Map:
			if tn := carries(u.Key(), owned); tn != nil {
				return tn
			}
			t = u.Elem()
		default:
			return nil
		}
	}
}
