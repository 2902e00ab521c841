package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/gpf-go/gpf/internal/lint/analysis"
)

// GoLeak flags goroutines launched in the engine and its executor backends
// whose exit is not provably tied to a lifecycle signal: a sync.WaitGroup
// Done, a receive or select on a cancel channel (chan struct{}, which
// includes ctx.Done()), or a drained channel (for-range). The PR 5 map-error
// hazard and the PR 8 transport teardown hazards were exactly this shape —
// a goroutine parked on a channel nobody would ever signal again, leaking
// its stack and whatever it captured for the life of the process.
//
// The check is necessarily a proof-of-tie, not a proof-of-leak: a goroutine
// that exits by other means (deadline-bounded I/O, bounded work) is a false
// positive and should carry a suppression explaining the bound.
var GoLeak = &analysis.Analyzer{
	Name: "goleak",
	Doc: "flags goroutines in the engine whose exit is not tied to a " +
		"WaitGroup, cancel channel, context, or drained channel",
	Run: runGoLeak,
}

// goLeakScopes: the engine and everything under it (exec backends included).
var goLeakScopes = []string{"internal/engine"}

func goLeakInScope(path string) bool {
	return inScope(path, goLeakScopes) || path == "command-line-arguments"
}

func runGoLeak(pass *analysis.Pass) error {
	if !goLeakInScope(pass.Pkg.Path()) {
		return nil
	}
	info := pass.TypesInfo

	// Package-local function bodies, for `go helper()` resolution.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
					decls[obj] = fd
				}
			}
		}
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := goBody(info, decls, gs)
			if body == nil {
				reportNode(pass, gs, "goroutine body cannot be resolved statically, so its "+
					"exit cannot be verified — launch a function literal or a package-local "+
					"function, or suppress with the reason it terminates")
				return true
			}
			if !exitTied(info, body) {
				reportNode(pass, gs, "goroutine exit is not tied to a WaitGroup, cancel "+
					"channel, context, or drained channel — it can outlive its stage and leak; "+
					"join it or select on a cancellation signal")
			}
			return true
		})
	}
	return nil
}

// goBody resolves the body a go statement runs: a function literal or a
// package-local function or method. A function value — a parameter, a field,
// a local bound to a literal — does not resolve.
func goBody(info *types.Info, decls map[*types.Func]*ast.FuncDecl, gs *ast.GoStmt) *ast.BlockStmt {
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	if fd := decls[calleeFunc(info, gs.Call)]; fd != nil {
		return fd.Body
	}
	return nil
}

// exitTied reports whether body contains a lifecycle tie: wg.Done (usually
// deferred), a receive from a cancel-shaped channel (chan struct{}; covers
// ctx.Done()), or a for-range over a channel (exits when the channel is
// closed and drained).
func exitTied(info *types.Info, body *ast.BlockStmt) bool {
	tied := false
	ast.Inspect(body, func(n ast.Node) bool {
		if tied {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil && fn.Name() == "Done" {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
					isNamed(sig.Recv().Type(), "sync", "WaitGroup") {
					tied = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && cancelChan(info.Types[n.X].Type) {
				tied = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					tied = true
				}
			}
		}
		return true
	})
	return tied
}

// cancelChan reports whether t is a channel of empty structs — the shape of
// cancellation signals (close-only channels, ctx.Done()).
func cancelChan(t types.Type) bool {
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}
