package engine

import (
	"encoding/binary"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func countReference(items []int, key func(int) int) map[int]int {
	out := map[int]int{}
	for _, it := range items {
		out[key(it)]++
	}
	return out
}

func TestReduceByKeyAggregates(t *testing.T) {
	ctx := NewContext(4)
	items := intRange(1000)
	key := func(x int) int { return x % 37 }
	d := Parallelize(ctx, items, 8)
	pairs, err := ReduceByKey("rbk", d, 8, key,
		func(int) int { return 1 },
		func(a, b int) int { return a + b },
		KeyedIntCodec{})
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := Collect("c", pairs)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]int{}
	for _, kv := range kvs {
		got[kv.Key] += kv.Val
	}
	if !reflect.DeepEqual(got, countReference(items, key)) {
		t.Fatalf("ReduceByKey counts differ: %v", got)
	}
	// Each output partition must hold its keys sorted and disjoint.
	seen := map[int]bool{}
	for p := 0; p < pairs.NumPartitions(); p++ {
		part, err := pairs.partition(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sort.SliceIsSorted(part, func(i, j int) bool { return part[i].Key < part[j].Key }) {
			t.Fatalf("partition %d keys not sorted", p)
		}
		for _, kv := range part {
			if seen[kv.Key] {
				t.Fatalf("key %d appears in two partitions", kv.Key)
			}
			seen[kv.Key] = true
		}
	}
}

// TestCombineByKeyMatchesNoCombine compares the map-side-combined shuffle
// with what a combine means: a plain sequential fold over every item, keys
// ascending.
func TestCombineByKeyMatchesNoCombine(t *testing.T) {
	items := intRange(600)
	key := func(x int) int { return x % 21 }
	ctx := NewContext(3)
	pairs, err := CombineByKey("cbk", Parallelize(ctx, items, 5), 4, key,
		func(int) int { return 1 },
		func(c, _ int) int { return c + 1 },
		func(a, b int) int { return a + b },
		nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect("c", pairs)
	if err != nil {
		t.Fatal(err)
	}
	// Collect concatenates the reduce partitions, each sorted by key.
	sort.Slice(got, func(i, j int) bool { return got[i].Key < got[j].Key })
	if want := sortedPairs(countReference(items, key)); !reflect.DeepEqual(got, want) {
		t.Fatalf("combine differs from the sequential fold:\n%v\n%v", got, want)
	}
}

// TestCountByKeyCombineShipsFewerBytes is the accounting claim behind the
// combined census: counts are right, and every map task ships one pair per
// distinct local key (8 here), not one per item (500).
func TestCountByKeyCombineShipsFewerBytes(t *testing.T) {
	items := intRange(4000)
	key := func(x int) int { return x % 8 }
	ctx := NewContext(4)
	counts, err := CountByKey("census", Parallelize(ctx, items, 8), key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(counts, countReference(items, key)) {
		t.Fatalf("counts wrong: %v", counts)
	}
	for _, s := range ctx.Metrics().Stages {
		if s.Name != "census/map" {
			continue
		}
		if len(s.Tasks) != 8 || s.ShuffleWriteBytes() == 0 {
			t.Fatalf("census map stage: %d tasks, %d bytes", len(s.Tasks), s.ShuffleWriteBytes())
		}
		for _, tm := range s.Tasks {
			if tm.InputItems != 500 || tm.OutputItems != 8 {
				t.Fatalf("map task %d read %d items and shipped %d pairs, want 500 and 8",
					tm.Partition, tm.InputItems, tm.OutputItems)
			}
		}
		return
	}
	t.Fatal("no census/map stage recorded")
}

// TestCountByKeyPipelinedMatchesBarrier: the census equals the sequential
// count whether the shuffle overlaps (W=4) or degenerates (W=1).
func TestCountByKeyPipelinedMatchesBarrier(t *testing.T) {
	items := intRange(900)
	key := func(x int) int { return x % 13 }
	for _, workers := range []int{1, 4} {
		counts, err := CountByKey("census", Parallelize(NewContext(workers), items, 6), key)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(counts, countReference(items, key)) {
			t.Fatalf("workers=%d: CountByKey disagrees with the sequential count", workers)
		}
	}
}

func TestKeyedIntCodecRoundTrip(t *testing.T) {
	f := func(keys []int32, vals []int32) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		pairs := make([]Keyed[int], n)
		for i := 0; i < n; i++ {
			pairs[i] = Keyed[int]{Key: int(keys[i]), Val: int(vals[i])}
		}
		block, err := KeyedIntCodec{}.Marshal(pairs)
		if err != nil {
			return false
		}
		got, err := KeyedIntCodec{}.Unmarshal(block)
		if err != nil {
			return false
		}
		if len(got) != len(pairs) {
			return false
		}
		for i := range got {
			if got[i] != pairs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyedIntCodecRejectsGarbage(t *testing.T) {
	if _, err := (KeyedIntCodec{}).Unmarshal(nil); err == nil {
		t.Fatal("nil block must not decode")
	}
	if _, err := (KeyedIntCodec{}).Unmarshal([]byte{0x05, 0x02}); err == nil {
		t.Fatal("truncated block must not decode")
	}
}

// TestKeyedIntCodecBoundsPairCount: a corrupt pair count must error before
// it sizes the slice — the allocate-before-validate shape gpflint/alloclen
// guards against (pre-fix this reserved 2^40 pairs, ~16 TiB).
func TestKeyedIntCodecBoundsPairCount(t *testing.T) {
	block := binary.AppendUvarint(nil, 1<<40)
	if _, err := (KeyedIntCodec{}).Unmarshal(block); err == nil {
		t.Fatal("pair count exceeding the payload must error, not allocate")
	}
}

// TestKeyedIntCodecCompact: sorted census-shaped pairs must encode well
// under gob's per-entry framing — the structural reason the combined census
// wins bytes.
func TestKeyedIntCodecCompact(t *testing.T) {
	pairs := make([]Keyed[int], 50)
	for i := range pairs {
		pairs[i] = Keyed[int]{Key: i, Val: 100 + i}
	}
	compact, err := KeyedIntCodec{}.Marshal(pairs)
	if err != nil {
		t.Fatal(err)
	}
	fat, err := GobCodec[Keyed[int]]{}.Marshal(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(compact) >= len(fat) {
		t.Fatalf("keyed-varint (%dB) not smaller than gob (%dB)", len(compact), len(fat))
	}
}
