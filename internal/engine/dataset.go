package engine

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"
)

// Dataset is a partitioned in-memory collection — the engine's RDD. A
// dataset is materialized — items (parts) or codec blocks (blocks) — or lazy
// (plan: a recorded chain of narrow ops not yet executed — see lineage.go).
// Materialized storage always holds every field. A serialized partition is a
// list of codec blocks that decode to the partition's items in order: one
// block for a Force under Context.StoreSerialized, the non-empty buckets a
// shuffle's reduce fetched, in map order, for every PartitionBy result.
// Datasets are immutable once materialized: operations return new datasets;
// forcing fills parts/blocks in place exactly once and drops the plan, so no
// materialized dataset references its input and an input nobody else holds
// is reclaimed by the garbage collector.
type Dataset[T any] struct {
	ctx    *Context
	parts  [][]T
	blocks [][][]byte // blocks[p]: partition p's codec blocks, in item order
	codec  Serializer[T]
	// blockCodec is the serializer that actually encoded blocks: the attached
	// codec, or gob for a shuffle of a codec-less dataset. It is fixed when
	// the blocks are allocated and survives WithCodec, so a dataset whose
	// codec was swapped after materialization still decodes its stored bytes
	// with the codec that wrote them (the new codec only applies to outputs
	// derived from this dataset).
	blockCodec Serializer[T]
	plan       *lineage[T]
	// meta is the run-once state of a dataset recorded lazy (lineage.go). Nil
	// for datasets born materialized.
	meta *planMeta
	// resident marks which partitions this process actually holds. Nil means
	// fully resident: either a single-process run, or a replicated root (a
	// Parallelize input every rank constructs identically). Stage outputs
	// under procs > 1 allocate the bitmap and mark only the partitions this
	// rank owns (Context.ownerOf), so reading a partition that lives on a
	// sibling rank errors loudly instead of silently yielding empty data.
	resident []bool
}

// nilInput is the error an op named name returns for a nil input dataset: a
// handle its owner dropped is an error to report, never an empty dataset.
func nilInput(name string) error {
	return fmt.Errorf("engine: stage %q: nil input dataset", name)
}

// GobCodec is Go's generic reflective serializer: the engine's fallback when
// no codec is attached, and the stand-in for Java serialization in the
// paper's comparisons.
type GobCodec[T any] struct{}

// Name identifies the codec in metrics output.
func (GobCodec[T]) Name() string { return "gob" }

// Marshal encodes a batch through encoding/gob.
func (GobCodec[T]) Marshal(items []T) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(items); err != nil {
		return nil, fmt.Errorf("engine: gob encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Unmarshal inverts Marshal.
func (GobCodec[T]) Unmarshal(data []byte) ([]T, error) {
	var items []T
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&items); err != nil {
		return nil, fmt.Errorf("engine: gob decode: %w", err)
	}
	return items, nil
}

// Parallelize distributes items over numPartitions partitions, preserving
// order (contiguous chunks).
func Parallelize[T any](ctx *Context, items []T, numPartitions int) *Dataset[T] {
	if numPartitions < 1 {
		numPartitions = 1
	}
	parts := make([][]T, numPartitions)
	chunk := (len(items) + numPartitions - 1) / numPartitions
	for i := 0; i < numPartitions; i++ {
		lo := i * chunk
		hi := lo + chunk
		if lo > len(items) {
			lo = len(items)
		}
		if hi > len(items) {
			hi = len(items)
		}
		parts[i] = items[lo:hi]
	}
	return &Dataset[T]{ctx: ctx, parts: parts}
}

// WithCodec attaches a serializer to the dataset: Force stores its output
// as codec blocks when ctx.StoreSerialized is set, and a shuffle of it
// encodes its buckets with it. Already-encoded blocks keep decoding with the
// codec that wrote them (blockCodec), so swapping codecs never reinterprets
// old bytes. On a lazy dataset the pending plan is forked: forcing the fork
// runs the whole chain and stores the result on the fork alone, so the
// original stays lazy, and forcing both runs the chain twice; barriers read
// a lazy input through such a fork with a nil codec, so it is held as items.
// A nil dataset stays nil, for its reader.
func WithCodec[T any](d *Dataset[T], codec Serializer[T]) *Dataset[T] {
	if d == nil {
		return nil
	}
	if d.isLazy() {
		pl := *d.plan
		res := &Dataset[T]{ctx: d.ctx, codec: codec, plan: &pl}
		newLazyMeta(res)
		return res
	}
	return &Dataset[T]{
		ctx: d.ctx, parts: d.parts, blocks: d.blocks, codec: codec, blockCodec: d.blockCodec,
		meta: d.meta, resident: d.resident,
	}
}

// Codec returns the attached serializer (nil when none).
func (d *Dataset[T]) Codec() Serializer[T] { return d.codec }

// Context returns the owning context.
func (d *Dataset[T]) Context() *Context { return d.ctx }

// NumPartitions returns the partition count (known without forcing: narrow
// ops preserve partitioning).
func (d *Dataset[T]) NumPartitions() int {
	if d.plan != nil {
		return d.plan.nparts
	}
	if d.blocks != nil {
		return len(d.blocks)
	}
	return len(d.parts)
}

// partition materializes partition p whole — how narrow ops and actions
// read. On a lazy dataset the partition is computed through the fused chain
// closure (downstream lineages read their sources this way, which is what
// fuses an unforced upstream chain into the caller's task).
func (d *Dataset[T]) partition(p int, tm *TaskMetrics) ([]T, error) {
	return d.partitionNeed(p, tm, FieldsAll)
}

// partitionNeed materializes partition p for an op that runs at the call and
// declared that its callbacks read only the fields in need: each serialized
// block decodes through Project(need) when the codec supports it, and the
// blocks' items are concatenated in order, codec time charged to tm when
// non-nil. Items already in memory (and a lazy chain's output) come back
// whole.
func (d *Dataset[T]) partitionNeed(p int, tm *TaskMetrics, need FieldMask) ([]T, error) {
	if d.isLazy() {
		return d.plan.compute(p, tm)
	}
	if d.meta != nil && d.meta.err != nil {
		// Forced and failed: the error is sticky, don't serve partial data.
		return nil, d.meta.err
	}
	if d.resident != nil && p < len(d.resident) && !d.resident[p] {
		return nil, fmt.Errorf("engine: partition %d not resident on rank %d (owned by rank %d): cross-rank reads must go through a shuffle or action", p, d.ctx.rank(), d.ctx.ownerOf(p))
	}
	if d.blocks == nil {
		return d.parts[p], nil
	}
	start := time.Now()
	codec := d.blockCodec
	if need != FieldsAll {
		if pc, ok := codec.(ProjectableSerializer[T]); ok {
			codec = pc.Project(need)
		}
	}
	chunks := make([][]T, len(d.blocks[p]))
	total := 0
	for i, block := range d.blocks[p] {
		items, err := unmarshalCharged(codec, block, tm)
		if err != nil {
			return nil, fmt.Errorf("engine: decode partition %d: %w", p, err)
		}
		chunks[i] = items
		total += len(items)
	}
	if tm != nil {
		tm.SerializeTime += time.Since(start)
	}
	if len(chunks) == 1 {
		return chunks[0], nil
	}
	items := make([]T, 0, total)
	for _, chunk := range chunks {
		items = append(items, chunk...)
	}
	return items, nil
}

// storePartition stores out as partition p of a forced dataset; when its
// storage is serialized, it encodes out as one block with the block codec and
// charges tm.
func storePartition[T any](res *Dataset[T], p int, out []T, tm *TaskMetrics) error {
	if res.blocks == nil {
		res.parts[p] = out
		res.markResident(p)
		return nil
	}
	start := time.Now()
	block, err := res.blockCodec.Marshal(out)
	if err != nil {
		return fmt.Errorf("engine: encode partition %d: %w", p, err)
	}
	if tm != nil {
		tm.SerializeTime += time.Since(start)
	}
	res.blocks[p] = [][]byte{block}
	res.markResident(p)
	return nil
}

// markResident records that this process holds partition p. Concurrent tasks
// write distinct elements; the store before it happens-before any read of
// partition p by construction (tasks only read partitions their stage's
// ownership assigns to them).
func (d *Dataset[T]) markResident(p int) {
	if d.resident != nil {
		d.resident[p] = true
	}
}

// residentBitmap allocates the resident marks of an output dataset of n
// partitions, which markResident sets as this process's tasks store them;
// nil (fully resident) in one process.
func residentBitmap(ctx *Context, n int) []bool {
	if ctx.procs() > 1 {
		return make([]bool, n)
	}
	return nil
}

// MemoryBytes returns the serialized bytes the dataset stores: exact for
// serialized storage, 0 for items held in memory (sizing Go values would mean
// encoding them; the stage rows' HeapBytes is the process-wide measure).
func (d *Dataset[T]) MemoryBytes() int64 {
	var n int64
	for p := range d.blocks {
		n += d.blockBytes(p)
	}
	return n
}

// blockBytes is the length of partition p's stored blocks.
func (d *Dataset[T]) blockBytes(p int) int64 {
	var n int64
	for _, b := range d.blocks[p] {
		n += int64(len(b))
	}
	return n
}

// partitionSizeHint estimates the relative cost of processing partition p for
// LPT dispatch: serialized block bytes when stored serialized, item count
// otherwise. On a lazy dataset it asks the plan (which forwards to the root
// of the fused chain). Hints order dispatch only — a bad hint costs schedule
// quality, never correctness.
func (d *Dataset[T]) partitionSizeHint(p int) int64 {
	if d.isLazy() {
		if d.plan.sizeHint != nil {
			return d.plan.sizeHint(p)
		}
		return 0
	}
	if d.blocks != nil {
		if p < len(d.blocks) {
			return d.blockBytes(p)
		}
		return 0
	}
	if p < len(d.parts) {
		return int64(len(d.parts[p]))
	}
	return 0
}
