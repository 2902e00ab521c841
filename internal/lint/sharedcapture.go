package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/gpf-go/gpf/internal/lint/analysis"
)

// SharedCapture flags function literals passed as op funcs to the engine
// (Map, Filter, MapPartitions, shuffle route callbacks, ...) that write to
// variables captured from an enclosing scope. Op funcs run concurrently
// across the worker pool, one goroutine per partition, so an unsynchronized
// captured write is a data race — the exact bug class of the PR 1
// Repartition shared counter. Reads of captured state are fine (closures
// over broadcast values are the intended pattern); writes must go through
// the op's return value instead, or be suppressed with
// `//lint:ignore gpflint/sharedcapture <why it is synchronized>`.
var SharedCapture = &analysis.Analyzer{
	Name: "sharedcapture",
	Doc: "flags engine op closures that mutate variables captured from an " +
		"enclosing scope (concurrent map tasks would race on them)",
	Run: runSharedCapture,
}

// opFuncs are the engine entry points whose func-typed arguments execute
// concurrently across partitions. The same names are exported by pkg/gpf's
// wrapper layer.
var opFuncs = map[string]bool{
	"Map":            true,
	"Filter":         true,
	"FlatMap":        true,
	"MapPartitions":  true,
	"PartitionBy":    true, // key func: the shuffle route callback
	"SortPartitions": true,
	"CountByKey":     true, // key func: the census
	"Reduce":         true,
}

// enginePkg reports whether path is the engine package or its public
// wrapper.
func enginePkg(path string) bool {
	return pkgPathHas(path, "internal/engine") || pkgPathHas(path, "pkg/gpf")
}

func runSharedCapture(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || !enginePkg(fn.Pkg().Path()) || !opFuncs[fn.Name()] {
			return true
		}
		for _, arg := range call.Args {
			lit, ok := ast.Unparen(arg).(*ast.FuncLit)
			if !ok {
				continue
			}
			checkCapturedWrites(pass, fn.Name(), lit)
		}
		return true
	})
	return nil
}

// checkCapturedWrites reports every write inside lit whose target is rooted
// at a variable declared outside lit.
func checkCapturedWrites(pass *analysis.Pass, opName string, lit *ast.FuncLit) {
	report := func(pos token.Pos, verb string, obj types.Object) {
		pass.Reportf(pos, "%s %q captured from enclosing scope inside %s op func; "+
			"op funcs run concurrently per partition, so this is a data race "+
			"(return the value from the op instead)", verb, obj.Name(), opName)
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true // := declares fresh variables in the literal's scope
			}
			for _, lhs := range st.Lhs {
				if obj, verb := capturedWriteTarget(pass.TypesInfo, lhs, lit); obj != nil {
					report(lhs.Pos(), verb, obj)
				}
			}
		case *ast.IncDecStmt:
			if obj, verb := capturedWriteTarget(pass.TypesInfo, st.X, lit); obj != nil {
				report(st.X.Pos(), verb, obj)
			}
		case *ast.UnaryExpr:
			// Taking the address of a captured variable inside the closure is
			// not itself a write, but ranging further (escape analysis) is out
			// of scope here; leave it to -race.
		}
		return true
	})
}

// capturedWriteTarget classifies an lvalue written inside lit. It returns
// the captured root object and a description of the write, or nil when the
// write is closure-local or an allowed shape.
func capturedWriteTarget(info *types.Info, lhs ast.Expr, lit *ast.FuncLit) (types.Object, string) {
	lhs = ast.Unparen(lhs)
	root := rootIdent(lhs)
	if root == nil || root.Name == "_" {
		return nil, ""
	}
	obj := objOf(info, root)
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || !declaredOutside(v, lit) {
		return nil, ""
	}
	switch e := lhs.(type) {
	case *ast.Ident:
		return v, "assignment to variable"
	case *ast.StarExpr:
		return v, "write through pointer"
	case *ast.SelectorExpr:
		_ = e
		return v, "field write on variable"
	case *ast.IndexExpr:
		// Map writes race unconditionally. Slice/array element writes are the
		// engine's own partition-output idiom (disjoint indexes per task), so
		// only flag maps.
		t := info.TypeOf(e.X)
		if t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				return v, "map write to variable"
			}
		}
		return nil, ""
	}
	return nil, ""
}
