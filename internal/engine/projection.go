package engine

// Field projection (projection pushdown) lets a stage that reads only a few
// record fields skip decoding the rest. The engine knows nothing about what
// the fields ARE — FieldMask bits are assigned by the codec package (colfmt
// maps them to SAM columns) — it only hands the mask an op running at the
// call declared (effects.go) to that op's decode: partitionNeed decodes
// serialized blocks through codec.Project(mask) when the codec supports it.
// Codecs that cannot project (gob, the field codecs) ignore the mask and
// decode fully — projection is an optimization, never a semantics change.
//
// DecodedBytes/PrunedBytes accounting rides the same seam: StatsSerializer
// codecs report exactly which bytes they touched, and non-stats codecs are
// charged the whole block.

// FieldMask is a bitset of record fields an op's callbacks read. Bit meanings
// belong to the projectable codec (see internal/colfmt's Field* constants);
// the engine treats the mask as opaque. The zero mask is legal and means "no
// field content" — a count-only read that decodes just block headers.
type FieldMask uint64

// FieldsAll selects every field — the mask of a reader that declared nothing.
const FieldsAll = ^FieldMask(0)

// DecodeStats reports how many serialized bytes one Unmarshal call actually
// decoded versus skipped via projection.
type DecodeStats struct {
	// DecodedBytes counts bytes read to produce the result: block headers,
	// framing, and the columns selected by the mask.
	DecodedBytes int64
	// PrunedBytes counts bytes skipped outright because the projection mask
	// excluded their column.
	PrunedBytes int64
}

// ProjectableSerializer is a Serializer that can restrict itself to a field
// subset. Project returns a serializer whose Unmarshal materializes only the
// fields in mask (other fields are zero values). The engine only ever decodes
// through a projection: stored blocks and shuffle buckets are encoded by the
// unprojected codec. Project(FieldsAll) must behave like the receiver, and
// projections must compose by intersection (Project(a).Project(b) ==
// Project(a&b)).
type ProjectableSerializer[T any] interface {
	Serializer[T]
	Project(mask FieldMask) Serializer[T]
}

// StatsSerializer is a Serializer that reports decode-byte accounting. The
// stats are returned per call (not accumulated on the serializer), keeping
// shared codec values race-free across concurrent tasks.
type StatsSerializer[T any] interface {
	Serializer[T]
	UnmarshalStats(data []byte) ([]T, DecodeStats, error)
}

// effectiveSerializer resolves the serializer actually used for encoding:
// the attached codec, or the gob fallback when none is attached.
func effectiveSerializer[T any](codec Serializer[T]) Serializer[T] {
	if codec == nil {
		return GobCodec[T]{}
	}
	return codec
}

// unmarshalCharged decodes one block, charging decode-byte accounting to tm:
// exact decoded/pruned splits for StatsSerializer codecs, the whole block
// length otherwise.
func unmarshalCharged[T any](codec Serializer[T], block []byte, tm *TaskMetrics) ([]T, error) {
	if ss, ok := codec.(StatsSerializer[T]); ok {
		items, st, err := ss.UnmarshalStats(block)
		if err != nil {
			return nil, err
		}
		if tm != nil {
			tm.DecodedBytes += st.DecodedBytes
			tm.PrunedBytes += st.PrunedBytes
		}
		return items, nil
	}
	items, err := codec.Unmarshal(block)
	if err != nil {
		return nil, err
	}
	if tm != nil {
		tm.DecodedBytes += int64(len(block))
	}
	return items, nil
}
