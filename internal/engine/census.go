package engine

import (
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/gpf-go/gpf/internal/bufpool"
)

// Keyed is one (key, count) pair of a census: what each census task emits
// and what KeyedIntCodec carries between ranks.
type Keyed struct {
	Key int
	Val int
}

// sortedPairs flattens a count map into pairs sorted by key. The census
// folds the pairs back into a map, so no output depends on their order; the
// sort keeps KeyedIntCodec's key deltas small and non-negative.
func sortedPairs(m map[int]int) []Keyed {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]Keyed, len(keys))
	for i, k := range keys {
		out[i] = Keyed{Key: k, Val: m[k]}
	}
	return out
}

// KeyedIntCodec is a compact serializer for sorted (key, count) pairs: a
// varint pair count, then per pair the zigzag-varint key delta from the
// previous key and the zigzag-varint value. On a task's sorted census output
// the deltas are small non-negatives, so a pair typically costs 2-4 bytes
// against gob's per-entry framing.
type KeyedIntCodec struct{}

// Name identifies the codec in metrics.
func (KeyedIntCodec) Name() string { return "keyed-varint" }

// Marshal encodes pairs; any order is legal (deltas are zigzag-encoded) but
// sorted input encodes smallest.
func (KeyedIntCodec) Marshal(pairs []Keyed) ([]byte, error) {
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
func (KeyedIntCodec) Unmarshal(data []byte) ([]Keyed, error) {
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
	pairs := make([]Keyed, 0, n)
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
		pairs = append(pairs, Keyed{Key: prev, Val: int(v)})
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("engine: keyed-varint: %d trailing bytes after %d pairs", len(data), n)
	}
	return pairs, nil
}

// CountByKey returns a map from key to item count — the read census of the
// dynamic repartitioner (§4.4 step 2: "reduce is performed ... and returns
// the number of reads in each partition to the driver"). It is one action
// stage: each task counts its partition and emits one (key, count) pair per
// distinct local key, sorted; the pairs travel between ranks as
// KeyedIntCodec blobs, and the driver step sums them. opts declare the fields
// key reads — with a columnar source, the census then decodes only those
// columns.
func CountByKey[T any](name string, d *Dataset[T], key func(T) int, opts ...StageOption) (map[int]int, error) {
	out := map[int]int{}
	err := action(name, d, readMask(opts), KeyedIntCodec{},
		func(items []T) []Keyed {
			counts := make(map[int]int)
			for _, it := range items {
				counts[key(it)]++
			}
			return sortedPairs(counts)
		},
		func(parts [][]Keyed) {
			for _, pairs := range parts {
				for _, kv := range pairs {
					out[kv.Key] += kv.Val
				}
			}
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}
