// Package dataflow is a lightweight intraprocedural dataflow layer for
// gpflint analyzers: def-use chains and reaching conditions over go/ast and
// go/types, a taint fixed-point that tracks which source each value derives
// from, and per-function summaries for one level of call propagation. It is
// deliberately not an SSA or CFG framework — analyzers in this repo need to
// answer three questions about small, straight-line decode and transport
// functions: "does this value derive from that source?", "is it bounds-
// checked before it reaches this allocation?", and "what does this helper do
// with its parameters and results?" — and an AST-structural analysis answers
// all three without pulling golang.org/x/tools into the build.
//
// Precision model: variables are tracked field-insensitively (taint on any
// part of x taints x), containers propagate element taint (a write of a
// tainted value through x[i] taints reads of x[j]), and nested function
// literals are flattened into their enclosing function (a captured variable
// assigned inside a closure is still a definition). These choices
// over-approximate, which is the right failure mode for a linter: a missed
// sanitizer is a false positive a human can suppress with a reason; a missed
// source is a silent hole.
package dataflow

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Func is the dataflow view of one function body: every definition of every
// variable assigned inside it, with nested function literals flattened in.
type Func struct {
	Info *types.Info
	Body *ast.BlockStmt
	Sig  *types.Signature

	defs map[*types.Var][]Def
	lits map[*types.Var]*ast.FuncLit // closures bound to local variables
}

// Def is one definition of a variable: an assignment, a declaration with a
// value, or a range-clause binding (LHS iterates over container RHS).
type Def struct {
	LHS    *types.Var
	RHS    ast.Expr // defining expression; nil for zero-value declarations
	Result int      // result index when RHS is a multi-value call
}

// New builds the dataflow view of fn, which must be an *ast.FuncDecl or
// *ast.FuncLit with a body. Returns nil for bodyless declarations.
func New(info *types.Info, fn ast.Node) *Func {
	f := &Func{
		Info: info,
		defs: make(map[*types.Var][]Def),
		lits: make(map[*types.Var]*ast.FuncLit),
	}
	switch d := fn.(type) {
	case *ast.FuncDecl:
		f.Body = d.Body
		if obj, ok := info.Defs[d.Name].(*types.Func); ok {
			f.Sig, _ = obj.Type().(*types.Signature)
		}
	case *ast.FuncLit:
		f.Body = d.Body
		if tv, ok := info.Types[d]; ok {
			f.Sig, _ = tv.Type.(*types.Signature)
		}
	}
	if f.Body == nil {
		return nil
	}
	ast.Inspect(f.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			f.addAssign(n)
		case *ast.ValueSpec:
			for i, name := range n.Names {
				v := f.varOfIdent(name)
				if v == nil {
					continue
				}
				switch {
				case len(n.Values) == len(n.Names):
					f.addDef(Def{LHS: v, RHS: n.Values[i]})
					f.noteLit(v, n.Values[i])
				case len(n.Values) == 1:
					f.addDef(Def{LHS: v, RHS: n.Values[0], Result: i})
				default:
					f.addDef(Def{LHS: v})
				}
			}
		case *ast.RangeStmt:
			for _, lhs := range []ast.Expr{n.Key, n.Value} {
				if lhs == nil {
					continue
				}
				if v := rootVar(f.Info, lhs); v != nil {
					f.addDef(Def{LHS: v, RHS: n.X})
				}
			}
		}
		return true
	})
	return f
}

func (f *Func) addAssign(n *ast.AssignStmt) {
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		// Multi-value: a, b := f().
		for i, lhs := range n.Lhs {
			if v := rootVar(f.Info, lhs); v != nil {
				f.addDef(Def{LHS: v, RHS: n.Rhs[0], Result: i})
			}
		}
		return
	}
	for i, lhs := range n.Lhs {
		if i >= len(n.Rhs) {
			break
		}
		v := rootVar(f.Info, lhs)
		if v == nil {
			continue
		}
		f.addDef(Def{LHS: v, RHS: n.Rhs[i]})
		if n.Tok == token.DEFINE || n.Tok == token.ASSIGN {
			f.noteLit(v, n.Rhs[i])
		}
	}
}

func (f *Func) addDef(d Def) { f.defs[d.LHS] = append(f.defs[d.LHS], d) }

func (f *Func) noteLit(v *types.Var, rhs ast.Expr) {
	if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
		f.lits[v] = lit
	}
}

func (f *Func) varOfIdent(id *ast.Ident) *types.Var {
	if obj, ok := f.Info.Defs[id].(*types.Var); ok {
		return obj
	}
	obj, _ := f.Info.Uses[id].(*types.Var)
	return obj
}

// rootVar returns the variable at the base of an lvalue-shaped expression:
// x, x.f, x[i], *x, x.f[i].g all root at x. Nil for other shapes.
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj, ok := info.Defs[x].(*types.Var); ok {
				return obj
			}
			obj, _ := info.Uses[x].(*types.Var)
			return obj
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// SeedSet identifies the taint sources reaching a value, keyed by source
// position — one seed per source call site or seeded variable. Two values
// with intersecting seed sets derive (in part) from the same source, which
// is what lets a bounds check on `need` sanitize an allocation sized by
// `length` when need was computed from length.
type SeedSet map[token.Pos]bool

// intersects reports whether the two sets share a seed.
func (s SeedSet) intersects(o SeedSet) bool {
	if len(s) > len(o) {
		s, o = o, s
	}
	for p := range s {
		if o[p] {
			return true
		}
	}
	return false
}

func (s SeedSet) addAll(o SeedSet) bool {
	grew := false
	for p := range o {
		if !s[p] {
			s[p] = true
			grew = true
		}
	}
	return grew
}

func merged(a, b SeedSet) SeedSet {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(SeedSet, len(a)+len(b))
	out.addAll(a)
	out.addAll(b)
	return out
}

// Spec declares what taints. Call marks result `result` of a call expression
// as a taint source; Var marks a variable (typically a parameter) as
// externally tainted. Either may be nil.
type Spec struct {
	Call func(call *ast.CallExpr, result int) bool
	Var  func(v *types.Var) bool
}

// Taint is the fixed point of taint propagation over a function's def-use
// chains: assignments, arithmetic, slicing, conversions, container writes
// and local-closure returns all propagate seeds.
type Taint struct {
	F    *Func
	spec Spec
	vars map[*types.Var]SeedSet
	lits map[*ast.FuncLit]bool // recursion guard for closure result lookup
}

// Taint runs the propagation fixed point under spec.
func (f *Func) Taint(spec Spec) *Taint {
	t := &Taint{F: f, spec: spec, vars: make(map[*types.Var]SeedSet)}
	for changed := true; changed; {
		changed = false
		for v, defs := range f.defs {
			for _, d := range defs {
				s := t.defSeeds(d)
				if len(s) == 0 {
					continue
				}
				cur := t.vars[v]
				if cur == nil {
					cur = make(SeedSet)
					t.vars[v] = cur
				}
				if cur.addAll(s) {
					changed = true
				}
			}
		}
	}
	return t
}

func (t *Taint) defSeeds(d Def) SeedSet {
	if d.RHS == nil {
		return nil
	}
	if call, ok := ast.Unparen(d.RHS).(*ast.CallExpr); ok {
		return t.callSeeds(call, d.Result)
	}
	return t.Seeds(d.RHS)
}

// Seeds returns the taint sources reaching expression e (in single-value
// position). Nil/empty means untainted.
func (t *Taint) Seeds(e ast.Expr) SeedSet {
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := t.objOf(e).(*types.Var); ok {
			return t.varSeeds(v)
		}
	case *ast.ParenExpr:
		return t.Seeds(e.X)
	case *ast.StarExpr:
		return t.Seeds(e.X)
	case *ast.UnaryExpr:
		switch e.Op {
		case token.ADD, token.SUB, token.XOR, token.ARROW, token.AND:
			return t.Seeds(e.X)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
			token.SHL, token.SHR, token.AND, token.OR, token.XOR, token.AND_NOT:
			return merged(t.Seeds(e.X), t.Seeds(e.Y))
		}
	case *ast.IndexExpr:
		return t.Seeds(e.X)
	case *ast.SliceExpr:
		return t.Seeds(e.X)
	case *ast.SelectorExpr:
		// Field-insensitive: x.f carries x's taint. Package selectors root
		// at a PkgName, which yields nothing.
		return t.Seeds(e.X)
	case *ast.CompositeLit:
		var s SeedSet
		for _, el := range e.Elts {
			s = merged(s, t.Seeds(el))
		}
		return s
	case *ast.KeyValueExpr:
		return t.Seeds(e.Value)
	case *ast.TypeAssertExpr:
		return t.Seeds(e.X)
	case *ast.CallExpr:
		return t.callSeeds(e, 0)
	}
	return nil
}

// varSeeds returns the sources reaching variable v.
func (t *Taint) varSeeds(v *types.Var) SeedSet {
	s := t.vars[v]
	if t.spec.Var != nil && t.spec.Var(v) {
		s = merged(s, SeedSet{v.Pos(): true})
	}
	return s
}

func (t *Taint) objOf(id *ast.Ident) types.Object {
	if o := t.F.Info.Uses[id]; o != nil {
		return o
	}
	return t.F.Info.Defs[id]
}

func (t *Taint) callSeeds(call *ast.CallExpr, result int) SeedSet {
	if t.spec.Call != nil && t.spec.Call(call, result) {
		return SeedSet{call.Pos(): true}
	}
	fun := ast.Unparen(call.Fun)
	// Conversion T(x) passes the operand through.
	if tv, ok := t.F.Info.Types[fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return t.Seeds(call.Args[0])
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := t.objOf(id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "min", "max", "append":
				var s SeedSet
				for _, a := range call.Args {
					s = merged(s, t.Seeds(a))
				}
				return s
			}
			return nil // len, cap, make, new, ... produce fresh values
		}
		// A call through a local closure yields whatever the closure's
		// return expressions yield under this same taint state.
		if v, ok := t.objOf(id).(*types.Var); ok {
			if lit := t.F.lits[v]; lit != nil {
				return t.litResultSeeds(lit, result)
			}
		}
	}
	return nil
}

// litResultSeeds unions the seeds of a local closure's return expressions
// for one result index. Closure-local variables are tracked in the enclosing
// Func (bodies are flattened), so this is just a walk over its returns.
func (t *Taint) litResultSeeds(lit *ast.FuncLit, result int) SeedSet {
	if t.lits == nil {
		t.lits = make(map[*ast.FuncLit]bool)
	}
	if t.lits[lit] {
		return nil // self-recursive closure: cut the cycle
	}
	t.lits[lit] = true
	defer delete(t.lits, lit)
	var sig *types.Signature
	if tv, ok := t.F.Info.Types[lit]; ok {
		sig, _ = tv.Type.(*types.Signature)
	}
	var s SeedSet
	for _, ret := range returnsOf(lit.Body) {
		s = merged(s, t.returnSeeds(ret, sig, result))
	}
	return s
}

func (t *Taint) returnSeeds(ret *ast.ReturnStmt, sig *types.Signature, result int) SeedSet {
	switch {
	case len(ret.Results) == 0:
		// Naked return with named results.
		if sig != nil && result < sig.Results().Len() {
			return t.varSeeds(sig.Results().At(result))
		}
	case result < len(ret.Results):
		return t.Seeds(ret.Results[result])
	case len(ret.Results) == 1:
		// return f() forwarding a multi-value call.
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
			return t.callSeeds(call, result)
		}
	}
	return nil
}

// returnsOf collects the return statements belonging to body itself, not to
// function literals nested inside it.
func returnsOf(body *ast.BlockStmt) []*ast.ReturnStmt {
	var out []*ast.ReturnStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			out = append(out, n)
		}
		return true
	})
	return out
}

// pathTo returns the ancestor chain from the function body down to n
// (inclusive of both), or nil if n is not inside this function.
func (f *Func) pathTo(n ast.Node) []ast.Node {
	var path, stack []ast.Node
	ast.Inspect(f.Body, func(m ast.Node) bool {
		if m == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if path != nil {
			return false
		}
		stack = append(stack, m)
		if m == n {
			path = append([]ast.Node(nil), stack...)
			stack = stack[:len(stack)-1] // returning false skips f(nil)
			return false
		}
		return true
	})
	return path
}

// BoundedBy reports whether node n — typically an allocation whose size
// carries seeds — is protected by a relational bounds check on a value
// sharing a seed with it. Three shapes count:
//
//   - an enclosing branch admitting only small values: if v < limit { ... }
//   - the else of an oversize test: if v > limit { ... } else { ... }
//   - a preceding oversize test whose branch exits: if v > limit { return }
//
// The preceding test need not strictly dominate: validate-then-allocate
// loops (pass 1 checks every length, pass 2 allocates from them) count. A
// check appearing after the allocation never counts, and comparisons against
// the constant 0 never count — `if n > 0 { make(T, n) }` guards nothing.
func (t *Taint) BoundedBy(n ast.Node, seeds SeedSet) bool {
	if len(seeds) == 0 {
		return false
	}
	path := t.F.pathTo(n)
	for i, anc := range path {
		ifs, ok := anc.(*ast.IfStmt)
		if !ok || i+1 >= len(path) {
			continue
		}
		switch path[i+1] {
		case ifs.Body:
			if t.condBounds(ifs.Cond, seeds, taintedSmall) {
				return true
			}
		case ifs.Else:
			if t.condBounds(ifs.Cond, seeds, taintedLarge) {
				return true
			}
		}
	}
	found := false
	ast.Inspect(t.F.Body, func(m ast.Node) bool {
		if found {
			return false
		}
		ifs, ok := m.(*ast.IfStmt)
		if !ok || ifs.Pos() >= n.Pos() || !terminates(ifs.Body) {
			return true
		}
		if t.condBounds(ifs.Cond, seeds, taintedLarge) {
			found = true
		}
		return true
	})
	return found
}

// Bound directions: a check is only a bound when the tainted value sits on
// the right side of the comparison for its context — the small side of an
// admitting branch (if v < limit { alloc }), the large side of a rejecting
// one (if v > limit { return }).
type boundDir int

const (
	taintedSmall boundDir = iota
	taintedLarge
)

func (t *Taint) condBounds(cond ast.Expr, seeds SeedSet, dir boundDir) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if found {
			return false
		}
		cmp, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		small, large := cmp.X, cmp.Y
		switch cmp.Op {
		case token.LSS, token.LEQ:
		case token.GTR, token.GEQ:
			small, large = large, small
		default:
			return true
		}
		tainted, other := small, large
		if dir == taintedLarge {
			tainted, other = large, small
		}
		if t.isZero(other) {
			return true
		}
		if t.Seeds(tainted).intersects(seeds) {
			found = true
		}
		return true
	})
	return found
}

func (t *Taint) isZero(e ast.Expr) bool {
	tv, ok := t.F.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	return exact && v == 0
}

// terminates reports whether executing s always exits the enclosing
// statement sequence: a return, branch, panic, or fatal call in tail
// position, or an if whose branches all terminate.
func terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		if len(s.List) == 0 {
			return false
		}
		return terminates(s.List[len(s.List)-1])
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.IfStmt:
		return s.Else != nil && terminates(s.Body) && terminates(s.Else)
	case *ast.ExprStmt:
		call, ok := ast.Unparen(s.X).(*ast.CallExpr)
		if !ok {
			return false
		}
		switch fn := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			return fn.Name == "panic"
		case *ast.SelectorExpr:
			switch fn.Sel.Name {
			case "Exit", "Goexit", "Fatal", "Fatalf":
				return true
			}
		}
	}
	return false
}

// Summary is one level of cross-function taint propagation: for each result
// of a function, the seeds flowing into it, and whether the body applies any
// relational bound to a value sharing those seeds. Checked results get the
// benefit of the doubt at call sites — a reader-style error latch
// (`if v > limit { r.fail(...) }`) does not dominate its return, but it does
// validate, and the caller is expected to consult the error.
type Summary struct {
	ResultSeeds   []SeedSet
	ResultChecked []bool
}

// Summarize runs the taint fixed point under spec and projects it onto the
// function's results.
func (f *Func) Summarize(spec Spec) *Summary {
	if f.Sig == nil {
		return &Summary{}
	}
	n := f.Sig.Results().Len()
	sum := &Summary{
		ResultSeeds:   make([]SeedSet, n),
		ResultChecked: make([]bool, n),
	}
	if n == 0 {
		return sum
	}
	t := f.Taint(spec)
	for _, ret := range returnsOf(f.Body) {
		for i := 0; i < n; i++ {
			sum.ResultSeeds[i] = merged(sum.ResultSeeds[i], t.returnSeeds(ret, f.Sig, i))
		}
	}
	for i := 0; i < n; i++ {
		if len(sum.ResultSeeds[i]) == 0 {
			continue
		}
		checked := false
		ast.Inspect(f.Body, func(m ast.Node) bool {
			if checked {
				return false
			}
			if ifs, ok := m.(*ast.IfStmt); ok {
				if t.condBounds(ifs.Cond, sum.ResultSeeds[i], taintedLarge) ||
					t.condBounds(ifs.Cond, sum.ResultSeeds[i], taintedSmall) {
					checked = true
				}
			}
			return true
		})
		sum.ResultChecked[i] = checked
	}
	return sum
}

// ClosureOf returns the function literal bound to local variable v by a
// plain assignment (`fn := func() {...}`), or nil. Analyzers use it to
// resolve `go fn()` through the def-use chain.
func (f *Func) ClosureOf(v *types.Var) *ast.FuncLit { return f.lits[v] }
