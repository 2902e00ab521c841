package engine

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"github.com/gpf-go/gpf/internal/bufpool"
)

// Keyed pairs an integer shuffle key with a value — the record type flowing
// through the combine-based wide ops.
type Keyed[V any] struct {
	Key int
	Val V
}

// sortedPairs flattens an accumulator map into pairs sorted by key. Every
// combine output goes through it, so bucket blocks and reduce partitions are
// byte-deterministic regardless of map iteration order (the gpflint/mapiter
// invariant: collect keys, sort, then emit).
func sortedPairs[C any](m map[int]C) []Keyed[C] {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]Keyed[C], len(keys))
	for i, k := range keys {
		out[i] = Keyed[C]{Key: k, Val: m[k]}
	}
	return out
}

// CombineByKey is the map-side-combine wide operation, the engine's
// aggregateByKey: items are keyed by key, pre-aggregated per destination
// bucket on the map side (create for the first item of a key, mergeValue for
// the rest), shuffled as Keyed pairs, and merged across map tasks on the
// reduce side with mergeCombiners. Pre-aggregation means each map task ships
// at most one pair per (distinct key, reduce partition) instead of one pair
// per item — the shuffle-byte reduction §4.4's census relies on. Each output
// partition holds its keys sorted ascending.
//
// The combiner callbacks run concurrently across partitions (one task per
// partition, like every op func) but each invocation only sees task-local
// accumulators; they must not write captured state. codec serializes the
// shuffled pairs (nil selects the gob fallback).
//
// CombineByKey runs at the call like every wide op and returns a materialized
// dataset. opts declare the fields that key/create/mergeValue read
// (ReadsOnly): the map task consumes its input records, so that mask is the
// one it decodes them under (FieldsAll when undeclared) — a census over
// columnar blocks decodes only its key columns.
func CombineByKey[T, C any](name string, d *Dataset[T], numPartitions int, key func(T) int,
	create func(T) C, mergeValue func(C, T) C, mergeCombiners func(C, C) C,
	codec Serializer[Keyed[C]], opts ...StageOption) (*Dataset[Keyed[C]], error) {
	if numPartitions < 1 {
		return nil, fmt.Errorf("engine: stage %q: numPartitions must be positive", name)
	}
	if codec == nil {
		codec = GobCodec[Keyed[C]]{}
	}
	if err := d.Force(); err != nil {
		return nil, err
	}
	mapNeed := readMask(opts)
	res := newResult(d.ctx, codec, numPartitions)
	in := d.NumPartitions()
	sc := &shuffleCore[[]Keyed[C], Keyed[C]]{
		ctx:     d.ctx,
		name:    name,
		in:      in,
		out:     numPartitions,
		mapHint: d.partitionSizeHint,
		res:     res,
		mapTask: func(p int, tm *TaskMetrics, emit func(r int, block []byte)) error {
			items, err := d.partitionNeed(p, tm, mapNeed)
			if err != nil {
				return err
			}
			tm.InputItems = len(items)
			acc := make([]map[int]C, numPartitions)
			for _, it := range items {
				k := key(it)
				r := k % numPartitions
				if r < 0 {
					r += numPartitions
				}
				m := acc[r]
				if m == nil {
					m = make(map[int]C)
					acc[r] = m
				}
				if c, ok := m[k]; ok {
					m[k] = mergeValue(c, it)
				} else {
					m[k] = create(it)
				}
			}
			pairs := make([][]Keyed[C], numPartitions)
			for r, m := range acc {
				if len(m) > 0 {
					pairs[r] = sortedPairs(m)
				}
			}
			// The fold above must see every item before any bucket is final;
			// from here on each bucket ships as soon as it is encoded.
			outPairs := 0
			serStart := time.Now()
			for r, bucket := range pairs {
				if len(bucket) == 0 {
					continue
				}
				block, err := codec.Marshal(bucket)
				if err != nil {
					return fmt.Errorf("engine: stage %q map %d: %w", name, p, err)
				}
				tm.ShuffleWriteBytes += int64(len(block))
				emit(r, block)
				outPairs += len(bucket)
			}
			tm.SerializeTime += time.Since(serStart)
			tm.OutputItems = outPairs
			return nil
		},
		decode: func(r int, block []byte, tm *TaskMetrics) ([]Keyed[C], error) {
			serStart := time.Now()
			pairs, err := unmarshalCharged(codec, block, tm)
			tm.SerializeTime += time.Since(serStart)
			if err != nil {
				return nil, fmt.Errorf("engine: stage %q reduce %d: %w", name, r, err)
			}
			return pairs, nil
		},
		merge: func(_ int, decoded [][]Keyed[C], _ *TaskMetrics) ([]Keyed[C], error) {
			total := 0
			for _, chunk := range decoded {
				total += len(chunk)
			}
			acc := make(map[int]C, total)
			for _, chunk := range decoded { // chunks in map-task order
				for _, kv := range chunk {
					if c, ok := acc[kv.Key]; ok {
						acc[kv.Key] = mergeCombiners(c, kv.Val)
					} else {
						acc[kv.Key] = kv.Val
					}
				}
			}
			return sortedPairs(acc), nil
		},
	}
	if err := sc.run(); err != nil {
		return nil, err
	}
	return res, nil
}

// ReduceByKey is CombineByKey with a single associative merge function over
// per-item values — Spark's reduceByKey.
func ReduceByKey[T, V any](name string, d *Dataset[T], numPartitions int, key func(T) int,
	value func(T) V, merge func(V, V) V, codec Serializer[Keyed[V]], opts ...StageOption) (*Dataset[Keyed[V]], error) {
	return CombineByKey(name, d, numPartitions, key,
		func(t T) V { return value(t) },
		func(acc V, t T) V { return merge(acc, value(t)) },
		merge, codec, opts...)
}

// KeyedIntCodec is a compact serializer for sorted (key, count) pairs: a
// varint pair count, then per pair the zigzag-varint key delta from the
// previous key and the zigzag-varint value. On the sorted output of a
// combine bucket the deltas are small non-negatives, so a pair typically
// costs 2-4 bytes against gob's per-entry framing — the codec that makes the
// census byte win strict.
type KeyedIntCodec struct{}

// Name identifies the codec in metrics.
func (KeyedIntCodec) Name() string { return "keyed-varint" }

// Marshal encodes pairs; any order is legal (deltas are zigzag-encoded) but
// sorted input encodes smallest.
func (KeyedIntCodec) Marshal(pairs []Keyed[int]) ([]byte, error) {
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v int64) {
		buf.Write(tmp[:binary.PutVarint(tmp[:], v)])
	}
	buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(pairs)))])
	prev := 0
	for _, kv := range pairs {
		put(int64(kv.Key - prev))
		prev = kv.Key
		put(int64(kv.Val))
	}
	return bufpool.Bytes(buf), nil
}

// Unmarshal decodes pairs encoded by Marshal.
func (KeyedIntCodec) Unmarshal(data []byte) ([]Keyed[int], error) {
	n, read := binary.Uvarint(data)
	if read <= 0 {
		return nil, fmt.Errorf("engine: keyed-varint: bad pair count")
	}
	data = data[read:]
	// Each pair is at least two varint bytes; bound the count by the payload
	// before it sizes the slice (a corrupt count must error, not OOM).
	if n > uint64(len(data)) {
		return nil, fmt.Errorf("engine: keyed-varint: pair count %d exceeds payload", n)
	}
	next := func() (int64, error) {
		v, r := binary.Varint(data)
		if r <= 0 {
			return 0, fmt.Errorf("engine: keyed-varint: truncated pair")
		}
		data = data[r:]
		return v, nil
	}
	pairs := make([]Keyed[int], 0, n)
	prev := 0
	for i := uint64(0); i < n; i++ {
		dk, err := next()
		if err != nil {
			return nil, err
		}
		v, err := next()
		if err != nil {
			return nil, err
		}
		prev += int(dk)
		pairs = append(pairs, Keyed[int]{Key: prev, Val: int(v)})
	}
	return pairs, nil
}

// CountByKey returns a map from key to item count — the read census of the
// dynamic repartitioner (§4.4 step 2: "reduce is performed ... and returns
// the number of reads in each partition to the driver"). It runs as a
// map-side-combined ReduceByKey over the compact keyed-varint codec, so each
// map task ships one (key, count) pair per distinct local key instead of a
// whole per-partition gob map, then collects the disjoint per-partition
// results. CountByKey is an action barrier: the combine forces any pending
// narrow chain first. opts declare the fields key reads — with a columnar
// source, the census then decodes only those columns.
func CountByKey[T any](name string, d *Dataset[T], key func(T) int, opts ...StageOption) (map[int]int, error) {
	pairs, err := ReduceByKey(name, d, d.NumPartitions(), key,
		func(T) int { return 1 },
		func(a, b int) int { return a + b },
		KeyedIntCodec{}, opts...)
	if err != nil {
		return nil, err
	}
	kvs, err := Collect(name+"/collect", pairs)
	if err != nil {
		return nil, err
	}
	out := make(map[int]int, len(kvs))
	for _, kv := range kvs {
		out[kv.Key] += kv.Val // keys are disjoint across reduce partitions
	}
	return out, nil
}
