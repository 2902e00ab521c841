package engine

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// PartitionBy is the wide operation: items are routed to the output
// partition returned by key (reduced modulo numPartitions). It runs two
// stages over one Exchange, as Spark runs a reduce stage after its map stage:
//
//   - <name>/map, one task per input partition, buckets its items and
//     serializes each bucket through the dataset's codec (gob when none is
//     attached), charging shuffle-write bytes, and publishes every bucket on
//     the Exchange as it is encoded, nil for an empty one;
//   - <name>/reduce, one task per output partition r, starts once every
//     local map has published and takes the in buckets of r from the
//     Exchange, charging shuffle-read bytes.
//
// This mirrors Spark's hash shuffle, where shuffle data is always serialized
// (and spilled to disk) even for in-memory datasets — the behaviour §5.3.1
// measures. In one process every bucket is published before a reduce starts,
// so no reduce waits; under mproc a reduce waits for the buckets of maps a
// sibling rank runs, and that wait is its FetchWait.
//
// A reduce keeps the non-empty buckets it fetched, in map order, as its
// partition: whatever the storage mode, a shuffle's result is the blocks it
// fetched, and the stage that reads it decodes them (Spark's next stage
// reading shuffle blocks). The reduce calls no codec and reports
// OutputItems 0; the consuming stage's InputItems counts the records.
//
// PartitionBy runs at the call, forcing a copy of a lazy input as items (see
// Force). The result keeps the input's codec, is materialized and holds no
// reference to the input. On error it returns no result: no partial output.
// The options are ignored — routed records keep every field, so a key's read
// mask cannot narrow the decode — and stay because bench/layers.go passes one.
func PartitionBy[T any](name string, d *Dataset[T], numPartitions int, key func(T) int, _ ...StageOption) (*Dataset[T], error) {
	if numPartitions < 1 {
		return nil, fmt.Errorf("engine: stage %q: numPartitions must be positive", name)
	}
	if d == nil {
		return nil, nilInput(name)
	}
	codec := effectiveSerializer(d.codec)
	res := &Dataset[T]{ctx: d.ctx, codec: d.codec, blocks: make([][][]byte, numPartitions),
		blockCodec: codec, resident: residentBitmap(d.ctx, numPartitions)}
	d = WithCodec(d, nil)
	if err := d.Force(); err != nil {
		return nil, err
	}
	in := d.NumPartitions()
	ex := d.ctx.exec.Exchange(d.ctx.nextSeq(), in, numPartitions)
	defer ex.Close()
	err := d.ctx.runStage(taskSet{
		row:  StageMetrics{Name: name + "/map", Kind: StageShuffle},
		n:    in,
		hint: d.partitionSizeHint,
		fn: func(m int, tm *TaskMetrics) error {
			items, err := d.partition(m, tm)
			if err != nil {
				return err
			}
			tm.InputItems = len(items)
			// Bucket by counting scatter: keys once, per-bucket counts, then
			// every item copied once into its bucket's region of one slab —
			// same bucket contents in the same order as appending would give.
			dest := make([]int, len(items))
			end := make([]int, numPartitions) // bucket r is slab[end[r-1]:end[r]]
			for i := range items {
				k := key(items[i]) % numPartitions
				if k < 0 {
					k += numPartitions
				}
				dest[i] = k
				end[k]++
			}
			for r, at := 0, 0; r < numPartitions; r++ {
				at, end[r] = at+end[r], at
			}
			slab := make([]T, len(items))
			for i := range items {
				slab[end[dest[i]]] = items[i]
				end[dest[i]]++
			}
			serStart := time.Now()
			start := 0
			for r := range end {
				bucket := slab[start:end[r]]
				start = end[r]
				var block []byte // nil: reduce r still accounts for map m
				if len(bucket) > 0 {
					if block, err = codec.Marshal(bucket); err != nil {
						return fmt.Errorf("engine: stage %q map %d: %w", name, m, err)
					}
					tm.ShuffleWriteBytes += int64(len(block))
				}
				ex.Publish(m, r, block)
			}
			tm.SerializeTime += time.Since(serStart)
			tm.OutputItems = len(items)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	st := d.ctx.newStage(name + "/reduce")
	err = st.run(taskSet{
		row: StageMetrics{Name: name + "/reduce", Kind: StageShuffle},
		n:   numPartitions,
		fn: func(r int, tm *TaskMetrics) error {
			// Buckets arrive in publication order; keeping them in map order
			// keeps the partition independent of it.
			kept := make([][]byte, in)
			for range in {
				m, err := st.await(tm, ex.Notify(r))
				if err != nil {
					return err
				}
				kept[m] = ex.Block(m, r)
				tm.ShuffleReadBytes += int64(len(kept[m]))
			}
			res.blocks[r] = slices.DeleteFunc(kept, func(b []byte) bool { return b == nil })
			res.markResident(r)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// SortPartitions sorts every partition by less — used after a PartitionBy
// keyed on genomic position to produce coordinate-sorted partitions (the
// Cleaner's sort step). A partition is whole inside one task, so sorting
// needs no barrier: it is a narrow op, lazy and fused like MapPartitions.
func SortPartitions[T any](name string, d *Dataset[T], less func(a, b T) bool) (*Dataset[T], error) {
	if d == nil {
		return nil, nilInput(name)
	}
	return MapPartitions(name, d, d.codec, func(_ int, items []T) ([]T, error) {
		out := append([]T(nil), items...)
		sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
		return out, nil
	})
}
