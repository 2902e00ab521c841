package dataflow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// check type-checks a synthetic snippet (package body, no imports needed)
// and returns the info plus the named function declarations.
func check(t *testing.T, src string) (*types.Info, map[string]*ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "snippet.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("snippet", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	decls := make(map[string]*ast.FuncDecl)
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			decls[fd.Name.Name] = fd
		}
	}
	return info, decls
}

// sourceSpec taints result 0 of any call to a function literally named
// "source" — the stand-in for binary.Uvarint in these snippets.
func sourceSpec() Spec {
	return Spec{Call: func(call *ast.CallExpr, result int) bool {
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "source" && result == 0
	}}
}

// taintOf runs the source-seeded taint over one function and returns a
// lookup from variable name to taintedness.
func taintOf(t *testing.T, src, fn string) (*Taint, func(name string) bool) {
	t.Helper()
	info, decls := check(t, src)
	f := New(info, decls[fn])
	if f == nil {
		t.Fatalf("no body for %s", fn)
	}
	tt := f.Taint(sourceSpec())
	return tt, func(name string) bool {
		for v := range f.defs {
			if v.Name() == name {
				return len(tt.varSeeds(v)) > 0
			}
		}
		t.Fatalf("no variable %q in %s", name, fn)
		return false
	}
}

const defUseSrc = `package p
func source(b []byte) (int, int) { return len(b), 0 }
func f(b []byte) int {
	x := 1
	x = 2
	y, _ := source(b)
	return x + y
}`

func TestDefUseConstruction(t *testing.T) {
	info, decls := check(t, defUseSrc)
	f := New(info, decls["f"])
	var x, y *types.Var
	for v := range f.defs {
		switch v.Name() {
		case "x":
			x = v
		case "y":
			y = v
		}
	}
	if x == nil || y == nil {
		t.Fatalf("missing defs: x=%v y=%v", x, y)
	}
	if n := len(f.defs[x]); n != 2 {
		t.Errorf("x has %d defs, want 2 (declaration and reassignment)", n)
	}
	defs := f.defs[y]
	if len(defs) != 1 || defs[0].Result != 0 {
		t.Errorf("y defs = %+v, want one def at result 0 of the call", defs)
	}
}

const propagationSrc = `package p
func source(b []byte) (int, int) { return len(b), 0 }
func f(untrusted []byte, limit int) {
	n, _ := source(untrusted)
	viaAssign := n
	viaArith := (n + 3) / 4
	viaConv := uint64(n)
	viaSlice := untrusted[2:]
	viaIndexRead := viaSlice[0]
	container := make([]int, 4)
	container[0] = n
	viaContainer := container[3]
	clean := limit
	cleanArith := clean * 2
	_, _, _, _, _, _, _ = viaAssign, viaArith, viaConv, viaSlice, viaIndexRead, viaContainer, cleanArith
}`

func TestTaintPropagation(t *testing.T) {
	// Seed the call source and, separately, the untrusted parameter — the
	// slice/index cases propagate the parameter's own taint.
	info, decls := check(t, propagationSrc)
	f := New(info, decls["f"])
	spec := sourceSpec()
	spec.Var = func(v *types.Var) bool { return v.Name() == "untrusted" }
	tt := f.Taint(spec)
	tainted := func(name string) bool {
		for v := range f.defs {
			if v.Name() == name {
				return len(tt.varSeeds(v)) > 0
			}
		}
		t.Fatalf("no variable %q", name)
		return false
	}
	for _, name := range []string{"viaAssign", "viaArith", "viaConv", "viaSlice", "viaIndexRead", "viaContainer"} {
		if !tainted(name) {
			t.Errorf("%s should be tainted", name)
		}
	}
	for _, name := range []string{"clean", "cleanArith", "container"} {
		if name == "container" {
			// Writing a tainted element taints the container itself.
			if !tainted(name) {
				t.Errorf("container should be tainted by the element store")
			}
			continue
		}
		if tainted(name) {
			t.Errorf("%s should be clean", name)
		}
	}
}

const closureSrc = `package p
func source(b []byte) (int, int) { return len(b), 0 }
func f(b []byte) {
	read := func() int {
		v, _ := source(b)
		return v
	}
	n := read()
	m := len(b)
	_, _ = n, m
}`

func TestTaintThroughLocalClosure(t *testing.T) {
	_, tainted := taintOf(t, closureSrc, "f")
	if !tainted("n") {
		t.Error("n should be tainted through the local closure's return")
	}
	if tainted("m") {
		t.Error("m should be clean")
	}
}

const boundsSrc = `package p
func source(b []byte) (int, int) { return len(b), 0 }

func unguarded(b []byte) []byte {
	n, _ := source(b)
	return make([]byte, n)
}

func guardedTerminating(b []byte) []byte {
	n, _ := source(b)
	if n > len(b) {
		return nil
	}
	return make([]byte, n)
}

func guardedDerived(b []byte) []byte {
	length, _ := source(b)
	need := (length + 3) / 4
	if len(b) < need {
		return nil
	}
	return make([]byte, length)
}

func guardedEnclosing(b []byte) []byte {
	n, _ := source(b)
	if n <= len(b) {
		return make([]byte, n)
	}
	return nil
}

func guardedElse(b []byte) []byte {
	n, _ := source(b)
	if n > len(b) {
		return nil
	} else {
		return make([]byte, n)
	}
}

func positivityIsNoGuard(b []byte) []byte {
	n, _ := source(b)
	if n > 0 {
		return make([]byte, n)
	}
	return nil
}

func checkAfterAllocIsNoGuard(b []byte) []byte {
	n, _ := source(b)
	out := make([]byte, n)
	if n > len(b) {
		return nil
	}
	return out
}

func validateThenAllocate(b []byte, counts []int) [][]byte {
	limit := len(b)
	for i := range counts {
		n, _ := source(b)
		if n > limit {
			return nil
		}
		counts[i] = n
	}
	out := make([][]byte, 0, len(counts))
	for _, n := range counts {
		out = append(out, make([]byte, n))
	}
	return out
}`

// makeIn finds the allocation sized by a tainted value inside fn and reports
// whether BoundedBy accepts it.
func makeBounded(t *testing.T, fn string) bool {
	t.Helper()
	info, decls := check(t, boundsSrc)
	f := New(info, decls[fn])
	tt := f.Taint(sourceSpec())
	bounded, found := false, false
	ast.Inspect(f.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "make" || len(call.Args) < 2 {
			return true
		}
		seeds := tt.Seeds(call.Args[1])
		if len(seeds) == 0 {
			return true
		}
		found = true
		bounded = tt.BoundedBy(call, seeds)
		return true
	})
	if !found {
		t.Fatalf("%s: no tainted allocation found", fn)
	}
	return bounded
}

func TestBoundsCheckDomination(t *testing.T) {
	shouldBound := map[string]bool{
		"unguarded":                false,
		"guardedTerminating":       true,
		"guardedDerived":           true,
		"guardedEnclosing":         true,
		"guardedElse":              true,
		"positivityIsNoGuard":      false,
		"checkAfterAllocIsNoGuard": false,
		"validateThenAllocate":     true,
	}
	for fn, want := range shouldBound {
		if got := makeBounded(t, fn); got != want {
			t.Errorf("%s: BoundedBy = %v, want %v", fn, got, want)
		}
	}
}

const summarySrc = `package p
func source(b []byte) (int, int) { return len(b), 0 }

func rawLength(b []byte) int {
	n, _ := source(b)
	return n
}

func checkedLength(b []byte, limit int) int {
	n, _ := source(b)
	if n > limit {
		return 0
	}
	return n
}

func cleanLength(b []byte) int {
	return len(b)
}`

func TestSummaries(t *testing.T) {
	info, decls := check(t, summarySrc)
	sum := func(fn string) *Summary { return New(info, decls[fn]).Summarize(sourceSpec()) }

	raw := sum("rawLength")
	if len(raw.ResultSeeds[0]) == 0 {
		t.Error("rawLength result should carry source seeds")
	}
	if raw.ResultChecked[0] {
		t.Error("rawLength result should be unchecked")
	}

	checked := sum("checkedLength")
	if len(checked.ResultSeeds[0]) == 0 {
		t.Error("checkedLength result should carry source seeds")
	}
	if !checked.ResultChecked[0] {
		t.Error("checkedLength result should be marked checked by the limit test")
	}

	clean := sum("cleanLength")
	if len(clean.ResultSeeds[0]) != 0 {
		t.Error("cleanLength result should be seed-free")
	}
}
