package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/gpf-go/gpf/internal/testutil/leakcheck"
)

// slowCodec delays every Marshal/Unmarshal by delay, so map tasks are still
// running while free slots could start reduce tasks.
type slowCodec struct {
	delay time.Duration
}

func (slowCodec) Name() string { return "slow-gob" }

func (c slowCodec) Marshal(items []int) ([]byte, error) {
	time.Sleep(c.delay)
	return GobCodec[int]{}.Marshal(items)
}

func (c slowCodec) Unmarshal(data []byte) ([]int, error) {
	time.Sleep(c.delay)
	return GobCodec[int]{}.Unmarshal(data)
}

// jitterCodec sleeps a random duration per call so map tasks complete in a
// different order every run — the adversarial schedule for the determinism
// property. The global rand functions are mutex-protected, so concurrent map
// tasks can share them.
type jitterCodec struct{}

func (jitterCodec) Name() string { return "jitter-gob" }

func (jitterCodec) Marshal(items []int) ([]byte, error) {
	time.Sleep(time.Duration(rand.Intn(3)) * time.Millisecond)
	return GobCodec[int]{}.Marshal(items)
}

func (c jitterCodec) Unmarshal(data []byte) ([]int, error) {
	return GobCodec[int]{}.Unmarshal(data)
}

// failingCodec errors on any block containing poison.
type failingCodec struct {
	poison int
}

func (failingCodec) Name() string { return "failing" }

func (c failingCodec) Marshal(items []int) ([]byte, error) {
	for _, it := range items {
		if it == c.poison {
			return nil, fmt.Errorf("poisoned block")
		}
	}
	return GobCodec[int]{}.Marshal(items)
}

func (c failingCodec) Unmarshal(data []byte) ([]int, error) {
	return GobCodec[int]{}.Unmarshal(data)
}

// shuffleRoute is the key function of the shuffle property tests.
func shuffleRoute(x int) int { return x * 7 }

// shuffledPartitions runs PartitionBy(shuffleRoute) on items and returns
// every output partition's contents.
func shuffledPartitions(t *testing.T, items []int, inParts, outParts, workers int, codec Serializer[int]) [][]int {
	t.Helper()
	ctx := NewContext(workers)
	d := Parallelize(ctx, items, inParts)
	if codec != nil {
		d = WithCodec(d, codec)
	}
	out, err := PartitionBy("shuffle", d, outParts, shuffleRoute)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]int, out.NumPartitions())
	for p := range parts {
		items, err := out.partition(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		parts[p] = items
	}
	return parts
}

// shuffleOracle is what a hash shuffle means, computed sequentially: output
// partition r holds the items with shuffleRoute(x) mod out == r, in input
// order.
func shuffleOracle(items []int, out int) [][]int {
	parts := make([][]int, out)
	for r := range parts {
		parts[r] = []int{}
	}
	for _, x := range items {
		r := (shuffleRoute(x)%out + out) % out
		parts[r] = append(parts[r], x)
	}
	return parts
}

// TestShuffleMatchesOracleProperty is the core determinism property: for
// random inputs, partitionings and worker counts (W=1 included), the
// shuffle's output partitions are exactly the sequential oracle's.
func TestShuffleMatchesOracleProperty(t *testing.T) {
	f := func(raw []int16, inP, outP, w uint8) bool {
		items := make([]int, len(raw))
		for i, v := range raw {
			items[i] = int(v)
		}
		inParts := 1 + int(inP)%6
		outParts := 1 + int(outP)%6
		workers := 1 + int(w)%8
		got := shuffledPartitions(t, items, inParts, outParts, workers, nil)
		return reflect.DeepEqual(got, shuffleOracle(items, outParts))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestShuffleDeterministicUnderRandomCompletion injects random per-block
// serialization delays so map tasks publish in a different order each run;
// the merged output must not change.
func TestShuffleDeterministicUnderRandomCompletion(t *testing.T) {
	items := intRange(500)
	want := shuffleOracle(items, 4)
	for trial := 0; trial < 5; trial++ {
		got := shuffledPartitions(t, items, 6, 4, 4, jitterCodec{})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: shuffle output differs from the sequential oracle", trial)
		}
	}
}

// TestShuffleMapErrorSkipsReduces injects a map-side serialization failure:
// the shuffle must return that error (not a cancellation), produce no
// result, run no reduce stage and leave no goroutine behind. Reduces start
// only once every map has succeeded, so none waits on the failed map.
func TestShuffleMapErrorSkipsReduces(t *testing.T) {
	base := leakcheck.Snapshot()
	ctx := NewContext(8)
	// 2 map partitions, 6 reduce partitions: more free slots than maps.
	d := WithCodec(Parallelize(ctx, intRange(100), 2), failingCodec{poison: 99})
	// The shuffle runs at the call: the map-side failure is what it returns.
	out, err := PartitionBy("boom", d, 6, func(x int) int { return x })
	if err == nil {
		t.Fatal("expected map-side error")
	}
	if out != nil {
		t.Fatal("failed shuffle returned a result dataset")
	}
	if !strings.Contains(err.Error(), "poisoned block") || errors.Is(err, context.Canceled) {
		t.Fatalf("root cause masked by cancellation: %v", err)
	}
	for _, s := range ctx.Metrics().Stages {
		if s.Name == "boom/reduce" {
			t.Fatal("a reduce stage ran after its map stage failed")
		}
	}
	base.Check(t, leakcheck.Timeout(3*time.Second))
}

// TestShufflePanicRecovered: a panicking route function must surface as an
// error from the shuffle's map stage, with no leaked goroutines.
func TestShufflePanicRecovered(t *testing.T) {
	base := leakcheck.Snapshot()
	ctx := NewContext(4)
	d := Parallelize(ctx, intRange(50), 4)
	_, err := PartitionBy("panic", d, 4, func(x int) int {
		if x == 17 {
			panic("route blew up")
		}
		return x
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic not converted to error: %v", err)
	}
	base.Check(t, leakcheck.Timeout(3*time.Second))
}

// TestShuffleFetchWaitZeroInProcess: in one process every map has published
// its buckets before the first reduce starts, so no reduce waits — even with
// more slots than maps and maps slow enough that a reduce could have started
// beside them — and a shuffle records exactly two stage rows.
func TestShuffleFetchWaitZeroInProcess(t *testing.T) {
	for _, workers := range []int{1, 8} {
		ctx := NewContext(workers)
		d := WithCodec(Parallelize(ctx, intRange(400), 2), slowCodec{delay: 10 * time.Millisecond})
		if _, err := PartitionBy("pipe", d, 4, func(x int) int { return x }); err != nil {
			t.Fatal(err)
		}
		m := ctx.Metrics()
		if w := m.TotalFetchWait(); w != 0 {
			t.Fatalf("W=%d: fetch wait %v in one process", workers, w)
		}
		shuffles := 0
		for _, s := range m.Stages {
			if s.Kind == StageShuffle {
				shuffles++
			}
		}
		if shuffles != 2 {
			t.Fatalf("W=%d: shuffle stage rows = %d, want 2", workers, shuffles)
		}
	}
}

// TestBarrierFallbackMatchesAccounting: the write==read byte invariant holds
// whether a stage runs its tasks one at a time (W=1) or side by side (W=2).
func TestBarrierFallbackMatchesAccounting(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ctx := NewContext(workers)
		d := Parallelize(ctx, intRange(1000), 4)
		if _, err := PartitionBy("shuffle", d, 8, func(x int) int { return x }); err != nil {
			t.Fatal(err)
		}
		m := ctx.Metrics()
		var wr, rd int64
		for _, s := range m.Stages {
			wr += s.ShuffleWriteBytes()
			rd += s.ShuffleReadBytes()
		}
		if wr == 0 || wr != rd {
			t.Fatalf("workers=%d: write %d read %d", workers, wr, rd)
		}
	}
}

// TestLPTOrder checks the dispatch order: descending by hint, stable on
// ties, identity without hints.
func TestLPTOrder(t *testing.T) {
	sizes := []int64{1, 5, 3, 5}
	got := lptOrder(len(sizes), func(i int) int64 { return sizes[i] })
	want := []int{1, 3, 2, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lptOrder = %v, want %v", got, want)
	}
	if got := lptOrder(3, nil); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("nil hint order = %v", got)
	}
}

// intsCodec encodes ints as fixed 8-byte little-endian words — deliberately
// incompatible with gob framing, for the codec-swap regression test.
type intsCodec struct{}

func (intsCodec) Name() string { return "ints-fixed" }

func (intsCodec) Marshal(items []int) ([]byte, error) {
	out := make([]byte, 0, 8*len(items))
	for _, v := range items {
		u := uint64(v)
		for b := 0; b < 8; b++ {
			out = append(out, byte(u>>(8*b)))
		}
	}
	return out, nil
}

func (intsCodec) Unmarshal(data []byte) ([]int, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("ints-fixed: truncated block")
	}
	out := make([]int, 0, len(data)/8)
	for i := 0; i < len(data); i += 8 {
		var u uint64
		for b := 0; b < 8; b++ {
			u |= uint64(data[i+b]) << (8 * b)
		}
		out = append(out, int(u))
	}
	return out, nil
}

// TestWithCodecSwapDecodesWithOriginalCodec is the regression test for the
// codec-swap corruption bug: blocks encoded by one codec must keep decoding
// with that codec after WithCodec attaches a different one.
func TestWithCodecSwapDecodesWithOriginalCodec(t *testing.T) {
	ctx := NewContext(2)
	ctx.StoreSerialized = true
	src := WithCodec(Parallelize(ctx, intRange(64), 4), intsCodec{})
	// Materialize serialized blocks under intsCodec via an identity stage.
	d, err := Map("ident", src, Serializer[int](intsCodec{}), func(x int) int { return x })
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Force(); err != nil {
		t.Fatal(err)
	}
	// Swap the codec: the stored blocks are still intsCodec bytes. Before the
	// blockCodec fix this decoded fixed-width words with the gob decoder.
	swapped := WithCodec(d, GobCodec[int]{})
	got, err := Collect("collect", swapped)
	if err != nil {
		t.Fatalf("collect after codec swap: %v", err)
	}
	if !reflect.DeepEqual(got, intRange(64)) {
		t.Fatalf("codec swap corrupted data: got %v", got[:8])
	}
	// New stage outputs derived from the swapped dataset use the new codec.
	d2, err := Map("reenc", swapped, Serializer[int](GobCodec[int]{}), func(x int) int { return x })
	if err != nil {
		t.Fatal(err)
	}
	got2, err := Collect("collect2", d2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, intRange(64)) {
		t.Fatal("re-encoded dataset corrupted")
	}
}

// TestGCPauseDeltaPopulates: the runtime/metrics-based pause measurement
// must observe forced collections.
func TestGCPauseDeltaPopulates(t *testing.T) {
	delta := gcPauseDelta(func() {
		for i := 0; i < 5; i++ {
			runtime.GC()
		}
	})
	if delta <= 0 {
		t.Fatalf("gcPauseDelta = %v after 5 forced GCs, want > 0", delta)
	}
}
