package engine

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/gpf-go/gpf/internal/testutil/allocbudget"
)

func countReference(items []int, key func(int) int) map[int]int {
	out := map[int]int{}
	for _, it := range items {
		out[key(it)]++
	}
	return out
}

// TestCountByKeyCombineShipsFewerBytes is the accounting claim behind the
// census action: counts are right, the census is one action row whose every
// task outputs one pair per distinct local key (8 here), not one per item
// (500), and it moves no shuffle byte.
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
	m := ctx.Metrics()
	if len(m.Stages) != 1 || m.Stages[0].Name != "census" || m.Stages[0].Kind != StageAction {
		t.Fatalf("census recorded %d stages (%+v), want one action row", len(m.Stages), m.Stages)
	}
	if n := m.TotalShuffleBytes(); n != 0 {
		t.Fatalf("census moved %d shuffle bytes, want 0", n)
	}
	tasks := m.Stages[0].Tasks
	if len(tasks) != 8 {
		t.Fatalf("census ran %d tasks, want 8", len(tasks))
	}
	for _, tm := range tasks {
		if tm.InputItems != 500 || tm.OutputItems != 8 {
			t.Fatalf("task %d read %d items and output %d pairs, want 500 and 8",
				tm.Partition, tm.InputItems, tm.OutputItems)
		}
	}
}

// TestCountByKeyPipelinedMatchesBarrier: the census equals the sequential
// count whatever the dispatch order, with one slot (W=1) or four (W=4).
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
		pairs := make([]Keyed, n)
		for i := 0; i < n; i++ {
			pairs[i] = Keyed{Key: int(keys[i]), Val: int(vals[i])}
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
	if _, err := (KeyedIntCodec{}).Unmarshal([]byte{0x01, 0x02, 0x04, 0x00}); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("block with a byte after its last pair: err %v", err)
	}
}

// TestKeyedIntCodecBoundsPairCount: a corrupt pair count must error before
// it sizes the slice (pre-fix this reserved 2^40 pairs, ~16 TiB).
func TestKeyedIntCodecBoundsPairCount(t *testing.T) {
	block := binary.AppendUvarint(nil, 1<<40)
	if _, err := (KeyedIntCodec{}).Unmarshal(block); err == nil {
		t.Fatal("pair count exceeding the payload must error, not allocate")
	}
}

// Allocation budget of FuzzKeyedIntCodec: the pair slice, 16 bytes a pair,
// is reserved from the count, which is at most the payload length, and the
// allocator rounds it up by as much as an eighth. Worst ratio seen on the
// corpus: 10 bytes per byte, 160 bytes for a 16-byte blob.
const (
	keyedPerByte = 24
	keyedSlack   = 1 << 10
)

// FuzzKeyedIntCodec: any bytes decode to pairs or an error within the budget
// above, and accepted pairs survive Marshal and a second Unmarshal. The
// checked-in corpus (testdata/fuzz/FuzzKeyedIntCodec) holds a census blob,
// unsorted keys, extreme values, an empty input, zero pairs, a truncated
// pair, a trailing byte and a 2^20-pair count with nothing behind it.
func FuzzKeyedIntCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var pairs []Keyed
		var err error
		allocbudget.Check(t, len(data), keyedPerByte, keyedSlack, func() { pairs, err = KeyedIntCodec{}.Unmarshal(data) })
		if err != nil {
			return
		}
		block, err := KeyedIntCodec{}.Marshal(pairs)
		if err != nil {
			t.Fatal(err)
		}
		again, err := KeyedIntCodec{}.Unmarshal(block)
		if err != nil || !reflect.DeepEqual(pairs, again) {
			t.Fatalf("pairs changed over a marshal/unmarshal round trip (err %v):\n%v\n%v", err, pairs, again)
		}
	})
}

// TestKeyedIntCodecCompact: sorted census-shaped pairs must encode well
// under gob's per-entry framing — why a census task's pairs travel as
// keyed-varint blobs.
func TestKeyedIntCodecCompact(t *testing.T) {
	pairs := make([]Keyed, 50)
	for i := range pairs {
		pairs[i] = Keyed{Key: i, Val: 100 + i}
	}
	compact, err := KeyedIntCodec{}.Marshal(pairs)
	if err != nil {
		t.Fatal(err)
	}
	fat, err := GobCodec[Keyed]{}.Marshal(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(compact) >= len(fat) {
		t.Fatalf("keyed-varint (%dB) not smaller than gob (%dB)", len(compact), len(fat))
	}
}
