package engine

import (
	"encoding/binary"
	"fmt"
	"time"
)

// MapPartitions is the fundamental narrow operation: fn transforms each
// partition independently. fn receives the partition index and its items.
//
// Narrow operations are LAZY: the call records a lineage node and returns
// immediately; a downstream barrier (action, shuffle) forces the maximal
// pending chain as one fused stage (see lineage.go). Errors from fn therefore
// surface at the barrier, wrapped with this stage's name. A narrow op reads
// its input whole.
func MapPartitions[T, U any](name string, d *Dataset[T], codec Serializer[U], fn func(p int, items []T) ([]U, error)) (*Dataset[U], error) {
	return lazyNarrow(name, d, codec, fn), nil
}

// Map applies fn to every item.
func Map[T, U any](name string, d *Dataset[T], codec Serializer[U], fn func(T) U) (*Dataset[U], error) {
	return MapPartitions(name, d, codec, func(_ int, items []T) ([]U, error) {
		out := make([]U, len(items))
		for i, it := range items {
			out[i] = fn(it)
		}
		return out, nil
	})
}

// FlatMap applies fn to every item and concatenates the results.
func FlatMap[T, U any](name string, d *Dataset[T], codec Serializer[U], fn func(T) []U) (*Dataset[U], error) {
	return MapPartitions(name, d, codec, func(_ int, items []T) ([]U, error) {
		var out []U
		for _, it := range items {
			out = append(out, fn(it)...)
		}
		return out, nil
	})
}

// Filter keeps items for which pred is true.
func Filter[T any](name string, d *Dataset[T], pred func(T) bool) (*Dataset[T], error) {
	return MapPartitions(name, d, d.codec, func(_ int, items []T) ([]T, error) {
		var out []T
		for _, it := range items {
			if pred(it) {
				out = append(out, it)
			}
		}
		return out, nil
	})
}

// ZipPartitions3 applies fn to aligned partitions of three co-partitioned
// datasets — the bundle join of Fig 7 (FASTA + SAM + VCF per partition). The
// partition counts must match. It is a narrow operation, lazy like
// MapPartitions: all three inputs' pending chains fuse into the recorded
// node.
func ZipPartitions3[A, B, C, U any](name string, a *Dataset[A], b *Dataset[B], c *Dataset[C], codec Serializer[U], fn func(p int, as []A, bs []B, cs []C) ([]U, error)) (*Dataset[U], error) {
	if a.NumPartitions() != b.NumPartitions() || a.NumPartitions() != c.NumPartitions() {
		return nil, fmt.Errorf("engine: stage %q: partition counts differ: %d/%d/%d", name, a.NumPartitions(), b.NumPartitions(), c.NumPartitions())
	}
	return lazyZip3(name, a, b, c, codec, fn), nil
}

// Collect gathers all partitions to the driver in partition order. Collect is
// an action: it forces any pending narrow chain first.
func Collect[T any](name string, d *Dataset[T]) ([]T, error) {
	if err := d.Force(); err != nil {
		return nil, err
	}
	parts := make([][]T, d.NumPartitions())
	var out []T
	err := d.ctx.runStage(taskSet{
		row:  StageMetrics{Name: name, Kind: StageAction},
		n:    d.NumPartitions(),
		hint: d.partitionSizeHint,
		fn: func(p int, tm *TaskMetrics) error {
			items, err := d.partition(p, tm)
			tm.InputItems = len(items)
			parts[p] = items
			return err
		},
		driver: func() (time.Duration, error) {
			wait, err := allgatherParts(d, parts)
			if err != nil {
				return wait, err
			}
			total := 0
			for _, p := range parts {
				total += len(p)
			}
			out = make([]T, 0, total)
			for _, p := range parts {
				out = append(out, p...)
			}
			return wait, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Reduce folds all items with an associative function. Each task reduces its
// partition; the driver reduces partial results serially (the Collect-style
// serial step that throttles BQSR in §5.2.2). Reduce is an action: it forces
// any pending narrow chain first.
func Reduce[T any](name string, d *Dataset[T], fn func(T, T) T) (T, bool, error) {
	var zero T
	if err := d.Force(); err != nil {
		return zero, false, err
	}
	// Each task leaves its partition's fold as a 0- or 1-item slice: the form
	// the allgather moves through the codec, so every rank folds the identical
	// sequence.
	partials := make([][]T, d.NumPartitions())
	var acc T
	found := false
	err := d.ctx.runStage(taskSet{
		row:  StageMetrics{Name: name, Kind: StageAction},
		n:    d.NumPartitions(),
		hint: d.partitionSizeHint,
		fn: func(p int, tm *TaskMetrics) error {
			items, err := d.partition(p, tm)
			if err != nil {
				return err
			}
			tm.InputItems = len(items)
			if len(items) > 0 {
				acc := items[0]
				for _, it := range items[1:] {
					acc = fn(acc, it)
				}
				partials[p] = []T{acc}
			}
			return nil
		},
		driver: func() (time.Duration, error) {
			wait, err := allgatherParts(d, partials)
			if err != nil {
				return wait, err
			}
			for _, p := range partials {
				if len(p) == 0 {
					continue
				}
				if !found {
					acc, found = p[0], true
				} else {
					acc = fn(acc, p[0])
				}
			}
			return wait, nil
		},
	})
	if err != nil {
		return zero, false, err
	}
	return acc, found, nil
}

// Count returns the total number of items. Count is an action: it forces any
// pending narrow chain first. It then reads with a zero field mask: a
// columnar-stored dataset decodes only block headers (the record count is in
// the header), pruning every column.
func Count[T any](name string, d *Dataset[T]) (int, error) {
	if err := d.Force(); err != nil {
		return 0, err
	}
	ctx := d.ctx
	counts := make([]int, d.NumPartitions())
	err := ctx.runStage(taskSet{
		row:  StageMetrics{Name: name, Kind: StageAction},
		n:    d.NumPartitions(),
		hint: d.partitionSizeHint,
		fn: func(p int, tm *TaskMetrics) error {
			items, err := d.partitionNeed(p, tm, 0)
			counts[p] = len(items)
			tm.InputItems = len(items)
			return err
		},
	})
	if err == nil && ctx.procs() > 1 {
		rank := ctx.rank()
		owned := make([][]byte, len(counts))
		for p := range counts {
			if ctx.ownerOf(p) != rank {
				continue
			}
			var tmp [binary.MaxVarintLen64]byte
			owned[p] = append([]byte(nil), tmp[:binary.PutUvarint(tmp[:], uint64(counts[p]))]...)
		}
		var blobs [][]byte
		blobs, err = ctx.exec.Gather(ctx.nextSeq(), len(counts), owned)
		if err == nil {
			for p := range counts {
				if ctx.ownerOf(p) == rank {
					continue
				}
				v, read := binary.Uvarint(blobs[p])
				if read <= 0 {
					err = fmt.Errorf("engine: stage %q: corrupt gathered count for partition %d", name, p)
					break
				}
				counts[p] = int(v)
			}
		}
	}
	if err != nil {
		return 0, err
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return total, nil
}
