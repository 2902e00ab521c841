package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"github.com/gpf-go/gpf/internal/lint/analysis"
)

// FieldFX guards the engine's trust in declared field effects (DESIGN.md,
// "Field demand and decode narrowing"). A decode prunes the record columns an
// op does not declare it reads; both failure modes around that contract are
// silent at the type level:
//
//   - An engine op over sam.Record with NO StageOption defaults to
//     FieldsAll — correct but prunes nothing. The default is deliberate,
//     so it must be loud: the analyzer reports the missed declaration.
//   - An op that declares ReadsOnly/WithEffects NARROWER than what its
//     callback actually reads is worse than undeclared: the planner may
//     feed the callback zero values for the pruned fields. The analyzer
//     reports every field selector outside the declared reads mask.
//
// The check is callee-scoped (any package calling the engine's effect-
// capable ops) and record-scoped to sam.Record, the one record type with a
// columnar layout. Reads the analyzer cannot see — the record passed whole
// to another function, or read through a method — disable the narrow check
// for that callback rather than guess; declarations remain the author's
// responsibility there.
var FieldFX = &analysis.Analyzer{
	Name: "fieldfx",
	Doc:  "engine ops over sam.Record must declare field effects, and declared masks must cover the callback's field reads",
	Run:  runFieldFX,
}

// fieldfxOps are the effect-capable dataset operations. Multi-input zips are
// excluded: joins consume whole records by construction.
var fieldfxOps = map[string]bool{
	"Map":            true,
	"Filter":         true,
	"MapPartitions":  true,
	"PartitionBy":    true,
	"SortPartitions": true,
	"CountByKey":     true,
	"ReduceByKey":    true,
	"CombineByKey":   true,
}

// samFieldBits maps sam.Record struct fields to their colfmt column bits.
// Mirrors the colfmt v1 layout (colfmt.Field* constants): grouped coordinate
// and mate columns share a bit.
var samFieldBits = map[string]uint64{
	"Name":    1 << 0,
	"Flag":    1 << 1,
	"RefID":   1 << 2,
	"Pos":     1 << 2,
	"MapQ":    1 << 3,
	"Cigar":   1 << 4,
	"MateRef": 1 << 5,
	"MatePos": 1 << 5,
	"TempLen": 1 << 5,
	"Seq":     1 << 6,
	"Qual":    1 << 7,
	"Tags":    1 << 8,
}

// fieldBitName names a colfmt column bit for diagnostics.
var fieldBitName = map[uint64]string{
	1 << 0: "FieldName",
	1 << 1: "FieldFlag",
	1 << 2: "FieldCoord",
	1 << 3: "FieldMapQ",
	1 << 4: "FieldCigar",
	1 << 5: "FieldMate",
	1 << 6: "FieldSeq",
	1 << 7: "FieldQual",
	1 << 8: "FieldTags",
}

func runFieldFX(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || !fieldfxOps[fn.Name()] {
			return true
		}
		if !pkgPathHas(fn.Pkg().Path(), "internal/engine") && !pkgPathHas(fn.Pkg().Path(), "pkg/gpf") {
			return true
		}

		// The op is in scope only when a callback argument consumes
		// sam.Record values (by value, pointer or slice).
		var callbacks []*ast.FuncLit
		samCallback := false
		for _, arg := range call.Args {
			t := pass.TypesInfo.Types[arg].Type
			if t == nil {
				continue
			}
			sig, ok := t.Underlying().(*types.Signature)
			if !ok || !signatureReadsSAM(sig) {
				continue
			}
			samCallback = true
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				callbacks = append(callbacks, lit)
			}
		}
		if !samCallback {
			return true
		}

		declared, reads, readsKnown := declaredEffects(pass.TypesInfo, call)
		if !declared {
			reportNode(pass, call,
				"%s over sam.Record declares no field effects: the projection planner defaults to AllFields and prunes nothing; declare ReadsOnly/Rebuilds/WithEffects", fn.Name())
			return true
		}
		if !readsKnown {
			return true // mask not statically evaluable: trust the author
		}
		for _, lit := range callbacks {
			checkNarrowReads(pass, lit, reads)
		}
		return true
	})
	return nil
}

// signatureReadsSAM reports whether any parameter of sig carries sam.Record
// values into the callback.
func signatureReadsSAM(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isSAMRecordCarrier(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// isSAMRecordCarrier matches sam.Record, *sam.Record and []sam.Record.
func isSAMRecordCarrier(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		t = u.Elem()
	case *types.Pointer:
		t = u.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Record" && obj.Pkg() != nil && pkgPathHas(obj.Pkg().Path(), "internal/sam")
}

// declaredEffects scans a call's arguments for StageOption values and
// returns whether any were passed, the union of statically-known reads
// masks, and whether every declared mask was statically evaluable.
func declaredEffects(info *types.Info, call *ast.CallExpr) (declared bool, reads uint64, readsKnown bool) {
	readsKnown = true
	for _, arg := range call.Args {
		t := info.Types[arg].Type
		if t == nil || !isStageOption(t) {
			continue
		}
		declared = true
		m, ok := optionReadsMask(info, arg)
		if !ok {
			readsKnown = false
			continue
		}
		reads |= m
	}
	return declared, reads, readsKnown
}

// isStageOption matches the engine.StageOption named type (and its pkg/gpf
// alias, which resolves to the same type object).
func isStageOption(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "StageOption" && obj.Pkg() != nil &&
		(pkgPathHas(obj.Pkg().Path(), "internal/engine") || pkgPathHas(obj.Pkg().Path(), "pkg/gpf"))
}

// optionReadsMask extracts the reads mask from a ReadsOnly/Rebuilds call or
// a WithEffects call over a FieldEffects literal. Option values built any
// other way (variables, helper functions) are not statically evaluable.
func optionReadsMask(info *types.Info, arg ast.Expr) (uint64, bool) {
	optCall, ok := ast.Unparen(arg).(*ast.CallExpr)
	if !ok {
		return 0, false
	}
	ctor := calleeFunc(info, optCall)
	if ctor == nil || len(optCall.Args) != 1 {
		return 0, false
	}
	switch ctor.Name() {
	case "ReadsOnly", "Rebuilds":
		return constMask(info, optCall.Args[0])
	case "WithEffects":
		lit, ok := ast.Unparen(optCall.Args[0]).(*ast.CompositeLit)
		if !ok {
			return 0, false
		}
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				return 0, false
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Reads" {
				return constMask(info, kv.Value)
			}
		}
		return 0, true // FieldEffects{} with no Reads key: reads nothing
	}
	return 0, false
}

// constMask evaluates a FieldMask expression the type checker folded to a
// constant.
func constMask(info *types.Info, expr ast.Expr) (uint64, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, ok := constant.Uint64Val(constant.ToInt(tv.Value))
	return v, ok
}

// checkNarrowReads walks one callback literal and reports sam.Record field
// reads whose column bit is outside the declared reads mask. Tracked
// carriers are the literal's own sam.Record parameters plus simple aliases
// (`r := &recs[i]`); writes (selector on an assignment's left side) are not
// reads, and method calls are left to the author's declaration.
func checkNarrowReads(pass *analysis.Pass, lit *ast.FuncLit, reads uint64) {
	tracked := map[types.Object]bool{}
	if lit.Type.Params != nil {
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				if obj := objOf(pass.TypesInfo, name); obj != nil && isSAMRecordCarrier(obj.Type()) {
					tracked[obj] = true
				}
			}
		}
	}
	if len(tracked) == 0 {
		return
	}

	writes := map[*ast.SelectorExpr]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		// Compound assignments (r.Flag |= x) read the field first, so only
		// plain stores count as writes.
		if asg.Tok == token.ASSIGN || asg.Tok == token.DEFINE {
			for _, lhs := range asg.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					writes[sel] = true
				}
			}
		}
		// Alias tracking: x := recs[i] / x := &recs[i] extends the set.
		for i, lhs := range asg.Lhs {
			if i >= len(asg.Rhs) {
				break
			}
			root := rootIdent(ast.Unparen(asg.Rhs[i]))
			if root == nil {
				if ue, ok := ast.Unparen(asg.Rhs[i]).(*ast.UnaryExpr); ok {
					root = rootIdent(ue.X)
				}
			}
			if root == nil || !tracked[objOf(pass.TypesInfo, root)] {
				continue
			}
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := objOf(pass.TypesInfo, id); obj != nil && isSAMRecordCarrier(obj.Type()) {
					tracked[obj] = true
				}
			}
		}
		return true
	})

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || writes[sel] {
			return true
		}
		root := rootIdent(sel.X)
		if root == nil || !tracked[objOf(pass.TypesInfo, root)] {
			return true
		}
		field, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
		if !ok || !field.IsField() {
			return true // method selection: out of static reach
		}
		bit, ok := samFieldBits[field.Name()]
		if !ok {
			return true
		}
		if bit&^reads != 0 {
			reportNode(pass, sel,
				"callback reads sam.Record.%s (%s) outside the declared effects mask: the planner may prune it to a zero value",
				field.Name(), fieldBitName[bit])
		}
		return true
	})
}
