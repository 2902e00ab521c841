package engine

import "reflect"

// Field-effect declarations — the op-side half of decode narrowing.
//
// Projection is an inference, not a caller annotation: every op may declare
// which record fields it READS from its input and which fields of its output
// it WRITES itself, and a fused chain derives from them, closure by closure,
// the minimal field set its source blocks must decode (planner.go). An op
// that declares nothing is treated as reading every field — a forgotten
// declaration is conservative (full decode, no pruning), never wrong.

// FieldEffects declares what one operation does with record fields. Masks
// are opaque to the engine; their bits belong to the projectable codec of
// the records flowing through the op (colfmt's Field* constants for
// sam.Record). Reads is expressed in the INPUT record's field space and
// Writes in the OUTPUT record's space — for type-changing ops the two
// spaces are unrelated, and the engine forces Writes to FieldsAll so
// downstream demand never leaks across the type boundary.
type FieldEffects struct {
	// Reads is the set of input fields the op's callbacks examine.
	Reads FieldMask
	// Writes is the set of output fields the op produces itself. Demand for
	// a written field is satisfied by the op and does not propagate to its
	// input; demand for any other field passes through untouched (the op
	// forwards those fields from its input records unchanged).
	Writes FieldMask
}

// fieldFX is the resolved per-op effect record demand is computed with.
// The zero value means "undeclared": the node is assumed to read everything.
type fieldFX struct {
	reads    FieldMask
	writes   FieldMask
	declared bool
}

// inNeed computes the demand an op places on its input, given the demand
// out on its output: the fields it reads itself, plus every demanded output
// field it does not write (those pass through from the input). An
// undeclared op demands everything — the conservative default.
func (f fieldFX) inNeed(out FieldMask) FieldMask {
	if !f.declared {
		return FieldsAll
	}
	return f.reads | (out &^ f.writes)
}

// StageOption configures an operation at construction time. Options ride as
// trailing variadic arguments on the op constructors, so existing call
// sites compile unchanged.
type StageOption func(*stageOpts)

type stageOpts struct {
	fx fieldFX
}

// WithEffects declares the op's full field effects.
func WithEffects(fx FieldEffects) StageOption {
	return func(o *stageOpts) {
		o.fx = fieldFX{reads: fx.Reads, writes: fx.Writes, declared: true}
	}
}

// ReadsOnly declares a pass-through op: it examines only the fields in mask
// and forwards records (or the untouched remainder of them) unchanged —
// Filter predicates, key extractors, census folds. Equivalent to
// WithEffects(FieldEffects{Reads: mask}).
func ReadsOnly(mask FieldMask) StageOption {
	return WithEffects(FieldEffects{Reads: mask})
}

// Rebuilds declares an op that constructs its output records from scratch,
// examining only the fields in reads: downstream demand stops at the op.
// Equivalent to WithEffects(FieldEffects{Reads: reads, Writes: FieldsAll}).
func Rebuilds(reads FieldMask) StageOption {
	return WithEffects(FieldEffects{Reads: reads, Writes: FieldsAll})
}

// resolveFX folds the options into the node's effect record. sameSpace
// reports whether the op's input and output records share a field space
// (same Go type); when they do not, Writes is forced to FieldsAll so
// output-space demand bits are never interpreted against input-space
// columns.
func resolveFX(sameSpace bool, opts []StageOption) fieldFX {
	var o stageOpts
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	if o.fx.declared && !sameSpace {
		o.fx.writes = FieldsAll
	}
	return o.fx
}

// sameRecordType reports whether two op type parameters are the same Go
// type — the guard resolveFX uses to decide whether declared Writes bits
// may pass input-space demand through.
func sameRecordType[T, U any]() bool {
	return reflect.TypeOf((*T)(nil)) == reflect.TypeOf((*U)(nil))
}
