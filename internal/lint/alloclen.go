package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/gpf-go/gpf/internal/lint/analysis"
	"github.com/gpf-go/gpf/internal/lint/analysis/dataflow"
)

// AllocLen taints integer lengths read straight off untrusted bytes at the
// codec, colfmt and frame decode surfaces (binary.Uvarint and friends) and
// flags any allocation sized by such a length that is not dominated by a
// bounds check. This is the analyzer form of two real bugs: the OOM of PR 7's
// sequence decoder (compress.unpackSeq, since deleted: a corrupt header
// length sized a []byte before anything validated it) and the PR 8
// frame-decoder allocate-before-validate class. Taint flows through
// assignments, arithmetic, conversions, container stores and one level of
// calls (per-function summaries), so `need := (length+3)/4; if len(b) <
// need` counts as a check on length.
var AllocLen = &analysis.Analyzer{
	Name: "alloclen",
	Doc: "flags allocations sized by untrusted decoded lengths without a " +
		"dominating bounds check (a corrupt header must error, not OOM)",
	Run: runAllocLen,
}

// allocLenScopes are the decode surfaces where byte-stream lengths are
// untrusted: serialized blocks (compress, colfmt) and the mproc transport
// frames (under internal/engine). "command-line-arguments" — explicit .go
// file arguments to cmd/gpflint — is always in scope so seeded fixture files
// can be swept directly.
var allocLenScopes = []string{"internal/compress", "internal/colfmt", "internal/engine"}

func allocLenInScope(path string) bool {
	return inScope(path, allocLenScopes) || path == "command-line-arguments"
}

// untrustedRead reports whether result `result` of call is an integer read
// straight off a byte stream — the taint sources.
func untrustedRead(info *types.Info, call *ast.CallExpr, result int) bool {
	if result != 0 {
		return false
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/binary" {
		return false
	}
	switch fn.Name() {
	case "Uvarint", "Varint", "ReadUvarint", "ReadVarint",
		"Uint16", "Uint32", "Uint64":
		return true
	}
	return false
}

// allocSink is one allocation whose size argument must not carry unchecked
// untrusted lengths.
type allocSink struct {
	call *ast.CallExpr
	size ast.Expr
	what string
}

// allocSinksIn collects the allocation sites in body: make length and
// capacity, slices.Grow, (*bytes.Buffer).Grow, and the bufpool getters.
func allocSinksIn(info *types.Info, body *ast.BlockStmt) []allocSink {
	var sinks []allocSink
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, isBuiltin := objOf(info, id).(*types.Builtin); isBuiltin && id.Name == "make" {
				if len(call.Args) >= 2 {
					sinks = append(sinks, allocSink{call: call, size: call.Args[1], what: "make size"})
				}
				if len(call.Args) >= 3 {
					sinks = append(sinks, allocSink{call: call, size: call.Args[2], what: "make capacity"})
				}
				return true
			}
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch {
		case fn.Pkg().Path() == "slices" && fn.Name() == "Grow" && len(call.Args) >= 2:
			sinks = append(sinks, allocSink{call: call, size: call.Args[1], what: "slices.Grow"})
		case fn.Pkg().Path() == "bytes" && fn.Name() == "Grow" && len(call.Args) == 1:
			sinks = append(sinks, allocSink{call: call, size: call.Args[0], what: "bytes.Buffer.Grow"})
		case pkgPathHas(fn.Pkg().Path(), "internal/bufpool") && strings.HasPrefix(fn.Name(), "Get") && len(call.Args) == 1:
			sinks = append(sinks, allocSink{call: call, size: call.Args[0], what: "bufpool." + fn.Name()})
		}
		return true
	})
	return sinks
}

// allocFacts is the per-function summary alloclen propagates across one
// level of calls: which results carry unchecked untrusted lengths, and which
// parameters flow into an unguarded allocation inside the body.
type allocFacts struct {
	decl          *ast.FuncDecl
	flow          *dataflow.Func
	sourceResults map[int]bool
	unsafeParams  map[int]bool
}

func runAllocLen(pass *analysis.Pass) error {
	if !allocLenInScope(pass.Pkg.Path()) {
		return nil
	}
	info := pass.TypesInfo

	facts := make(map[*types.Func]*allocFacts)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if flow := dataflow.New(info, fd); flow != nil {
				facts[obj] = &allocFacts{
					decl:          fd,
					flow:          flow,
					sourceResults: make(map[int]bool),
					unsafeParams:  make(map[int]bool),
				}
			}
		}
	}

	// spec taints the builtin byte-stream reads plus — as facts accumulate —
	// unchecked results of package-local helpers.
	spec := dataflow.Spec{Call: func(call *ast.CallExpr, result int) bool {
		if untrustedRead(info, call, result) {
			return true
		}
		if fn := calleeFunc(info, call); fn != nil {
			if ff := facts[fn]; ff != nil && ff.sourceResults[result] {
				return true
			}
		}
		return false
	}}

	// Iterate the summaries to a fixed point so taint propagates through
	// helper chains (getUvarint → readLengths → decoders). Package call
	// graphs here are shallow; the round cap is a safety net.
	for round := 0; round < 5; round++ {
		changed := false
		for _, ff := range facts {
			sum := ff.flow.Summarize(spec)
			for i, seeds := range sum.ResultSeeds {
				if len(seeds) > 0 && !sum.ResultChecked[i] && !ff.sourceResults[i] {
					ff.sourceResults[i] = true
					changed = true
				}
			}
			if ff.flow.Sig == nil {
				continue
			}
			params := ff.flow.Sig.Params()
			for j := 0; j < params.Len(); j++ {
				if ff.unsafeParams[j] {
					continue
				}
				p := params.At(j)
				pt := ff.flow.Taint(dataflow.Spec{Var: func(v *types.Var) bool { return v == p }})
				for _, sink := range allocSinksIn(info, ff.decl.Body) {
					seeds := pt.Seeds(sink.size)
					if len(seeds) > 0 && !pt.BoundedBy(sink.call, seeds) {
						ff.unsafeParams[j] = true
						changed = true
						break
					}
				}
			}
		}
		if !changed {
			break
		}
	}

	for _, ff := range facts {
		t := ff.flow.Taint(spec)
		for _, sink := range allocSinksIn(info, ff.decl.Body) {
			seeds := t.Seeds(sink.size)
			if len(seeds) == 0 || t.BoundedBy(sink.call, seeds) {
				continue
			}
			reportNode(pass, sink.call, "%s derives from an untrusted decoded length with no "+
				"dominating bounds check — a corrupt or hostile header can force an arbitrary "+
				"allocation; validate it against the payload size first", sink.what)
		}
		// One level of call propagation: an unchecked tainted argument
		// flowing into a helper that allocates from that parameter.
		ast.Inspect(ff.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil {
				return true
			}
			callee := facts[fn]
			if callee == nil || len(callee.unsafeParams) == 0 {
				return true
			}
			for j := range callee.unsafeParams {
				if j >= len(call.Args) {
					continue
				}
				seeds := t.Seeds(call.Args[j])
				if len(seeds) == 0 || t.BoundedBy(call, seeds) {
					continue
				}
				reportNode(pass, call, "untrusted decoded length flows unchecked into %s, which "+
					"sizes an allocation from that parameter — validate it against the payload "+
					"size before the call", fn.Name())
			}
			return true
		})
	}
	return nil
}
