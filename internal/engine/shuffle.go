package engine

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// shuffleCore is PartitionBy's transport half: it runs one shuffle over one
// Exchange and moves opaque blocks, leaving what they hold to the caller.
//
//   - mapTask runs once per input partition m and calls emit(r, block) for
//     every non-empty serialized bucket as soon as that bucket is encoded
//     (per-bucket readiness: a long map task streams its buckets out rather
//     than landing them all at task end), charging shuffle-write bytes
//     itself; buckets it never emits are treated as empty;
//   - reduceTask runs once per output partition r; each call of next returns
//     one of the in buckets of r in arrival order, as its map index and
//     block (nil for an empty bucket), parking the task while none is ready.
type shuffleCore struct {
	ctx        *Context
	name       string
	in, out    int
	mapHint    func(m int) int64
	mapTask    func(m int, tm *TaskMetrics, emit func(r int, block []byte)) error
	reduceTask func(r int, tm *TaskMetrics, next func() (m int, block []byte, err error)) error
}

// run executes the shuffle as one two-set pass of the stage runner: map tasks
// first (largest-first per mapHint), reduce tasks after, through the same
// slots.
//
// Protocol: map task m publishes bucket (m, r) on the stage's Exchange the
// moment it is encoded, and publishes the buckets it never emitted as empty
// when it completes. The Exchange is the bucket transport: in-process a
// shared block table plus one notify channel per reduce partition, buffered
// to the map-task count so publishing never blocks; under mproc, publishes to
// a remote-owned partition leave as bucket frames and arrivals from sibling
// ranks feed the same channels. Reduce task r receives map indices in
// publication order.
//
// A reduce task that finds nothing published parks in the runner's await.
// Map tasks never wait on other tasks, so the pass cannot deadlock:
// slot-holders run to completion and waiters are woken by map completions or
// by cancellation. With one slot in one process the first reduce cannot start
// before the last map has released it, so FetchWait and PipelineOverlap are
// structurally zero there. On error the caller discards the result dataset —
// no partial output.
func (sc *shuffleCore) run() error {
	ex := sc.ctx.exec.Exchange(sc.ctx.nextSeq(), sc.in, sc.out)
	defer ex.Close()
	st := sc.ctx.newStage(sc.name)
	maps := taskSet{
		row:  StageMetrics{Name: sc.name + "/map", Kind: StageShuffle},
		n:    sc.in,
		hint: sc.mapHint,
		fn: func(m int, tm *TaskMetrics) error {
			published := make([]bool, sc.out)
			// Publish stores the block before signaling readiness, so the
			// reduce side's Block read is ordered after the store.
			err := sc.mapTask(m, tm, func(r int, block []byte) {
				published[r] = true
				ex.Publish(m, r, block)
			})
			if err != nil {
				// Buckets already emitted stay valid (reduces may have consumed
				// them); the ones never published are covered by cancellation.
				return err
			}
			for r, done := range published {
				if !done {
					ex.Publish(m, r, nil) // empty bucket: reduce r must still account for m
				}
			}
			return nil
		},
	}
	reduces := taskSet{
		row: StageMetrics{Name: sc.name + "/reduce", Kind: StageShuffle},
		n:   sc.out,
		fn: func(r int, tm *TaskMetrics) error {
			return sc.reduceTask(r, tm, func() (int, []byte, error) {
				m, err := st.await(tm, ex.Notify(r))
				if err != nil {
					return 0, nil, err
				}
				block := ex.Block(m, r)
				tm.ShuffleReadBytes += int64(len(block))
				return m, block, nil
			})
		},
	}
	return st.run(maps, reduces)
}

// PartitionBy is the wide operation: items are routed to the output
// partition returned by key (reduced modulo numPartitions). Map tasks bucket
// their items and serialize each bucket through the dataset's codec (gob when
// none is attached), charging shuffle-write bytes; reduce tasks fetch their
// buckets, charging shuffle-read bytes. This mirrors Spark's hash shuffle,
// where shuffle data is always serialized (and spilled to disk) even for
// in-memory datasets — the behaviour §5.3.1 measures.
//
// A reduce keeps the non-empty buckets it fetched, in map order, as its
// partition: whatever the storage mode, a shuffle's result is the blocks it
// fetched, and the stage that reads it decodes them (Spark's next stage
// reading shuffle blocks). The reduce calls no codec and reports
// OutputItems 0; the consuming stage's InputItems counts the records.
//
// PartitionBy runs at the call, forcing a copy of a lazy input as items (see
// Force). The result keeps the input's codec, is materialized and holds no
// reference to the input.
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
	sc := &shuffleCore{
		ctx:     d.ctx,
		name:    name,
		in:      in,
		out:     numPartitions,
		mapHint: d.partitionSizeHint,
		mapTask: func(p int, tm *TaskMetrics, emit func(r int, block []byte)) error {
			items, err := d.partition(p, tm)
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
				if len(bucket) == 0 {
					continue
				}
				block, err := codec.Marshal(bucket)
				if err != nil {
					return fmt.Errorf("engine: stage %q map %d: %w", name, p, err)
				}
				tm.ShuffleWriteBytes += int64(len(block))
				emit(r, block) // pushed the moment it is encoded
			}
			tm.SerializeTime += time.Since(serStart)
			tm.OutputItems = len(items)
			return nil
		},
		reduceTask: func(r int, tm *TaskMetrics, next func() (int, []byte, error)) error {
			// Take each bucket as it arrives, overlapping the fetch with
			// still-running maps; keeping them in map-task order keeps the
			// partition independent of arrival order.
			kept := make([][]byte, in)
			for range in {
				m, block, err := next()
				if err != nil {
					return err
				}
				kept[m] = block
			}
			res.blocks[r] = slices.DeleteFunc(kept, func(b []byte) bool { return b == nil })
			res.markResident(r)
			return nil
		},
	}
	if err := sc.run(); err != nil {
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
