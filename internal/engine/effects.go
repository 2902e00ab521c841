package engine

// Read declarations — the op-side half of decode narrowing.
//
// A narrow op reads its input whole. An op that runs at the call and consumes
// its input records (CountByKey's tasks) may name the fields its callbacks
// read; the mask goes to the one decode the op
// itself performs (Dataset.partitionNeed). Declaring nothing reads every
// field, so a forgotten declaration costs pruning, never correctness.

// StageOption configures an operation at construction time; it rides as a
// trailing variadic argument on the constructors that take one.
type StageOption struct{ reads FieldMask }

// ReadsOnly declares that the op's callbacks examine only the fields in mask.
// Masks are opaque to the engine; their bits belong to the projectable codec
// of the op's input records (colfmt's Field* constants for sam.Record).
func ReadsOnly(mask FieldMask) StageOption { return StageOption{reads: mask} }

// readMask folds the options into the mask the op reads its input under:
// FieldsAll when nothing is declared.
func readMask(opts []StageOption) FieldMask {
	mask := FieldsAll
	for _, opt := range opts {
		mask = opt.reads
	}
	return mask
}
