package engine

import (
	"reflect"
	"testing"
)

// TestSerializedShuffleKeepsBuckets: under StoreSerialized a shuffle's reduce
// stores the buckets it fetched as its partition. PartitionBy encodes each
// non-empty bucket once and decodes nothing; a later Collect decodes each
// stored block once and returns the in-memory run's items in the same order;
// the result stores exactly the bytes the map side wrote; and the reduce
// tasks report OutputItems 0, the count being the consumer's InputItems.
func TestSerializedShuffleKeepsBuckets(t *testing.T) {
	const in, out = 4, 6
	items := intRange(300)
	// Keys 0..4 only: each map partition feeds two or three reduces, and
	// reduce 5 gets no bucket at all.
	key := func(x int) int { return x / 60 }
	nonEmpty := 0
	for m := range in {
		seen := map[int]bool{}
		for _, x := range items[m*75 : (m+1)*75] {
			seen[key(x)%out] = true
		}
		nonEmpty += len(seen)
	}

	mem := NewContext(2)
	pbMem, err := PartitionBy("pb", Parallelize(mem, items, in), out, key)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Collect("c", pbMem)
	if err != nil {
		t.Fatal(err)
	}
	if n := sumTasks(t, mem.Metrics(), "pb/reduce", func(tk TaskMetrics) int64 { return int64(tk.OutputItems) }); n != 300 {
		t.Fatalf("in-memory reduces output %d items, want 300", n)
	}

	ctx := NewContext(2)
	ctx.StoreSerialized = true
	codec := newCountingCodec[int]()
	pb, err := PartitionBy("pb", WithCodec(Parallelize(ctx, items, in), Serializer[int](codec)), out, key)
	if err != nil {
		t.Fatal(err)
	}
	if got := codec.marshals.Load(); got != int64(nonEmpty) {
		t.Fatalf("shuffle marshal calls = %d, want %d (one per non-empty bucket)", got, nonEmpty)
	}
	if got := codec.unmarshals.Load(); got != 0 {
		t.Fatalf("shuffle unmarshal calls = %d, want 0", got)
	}
	m := ctx.Metrics()
	if n := sumTasks(t, m, "pb/reduce", func(tk TaskMetrics) int64 { return tk.DecodedBytes }); n != 0 {
		t.Fatalf("reduces decoded %d bytes, want 0", n)
	}
	if n := sumTasks(t, m, "pb/reduce", func(tk TaskMetrics) int64 { return int64(tk.OutputItems) }); n != 0 {
		t.Fatalf("block-keeping reduces report %d output items, want 0", n)
	}
	written := sumTasks(t, m, "pb/map", func(tk TaskMetrics) int64 { return tk.ShuffleWriteBytes })
	if got := pb.MemoryBytes(); got != written {
		t.Fatalf("MemoryBytes = %d, want the %d shuffle-write bytes", got, written)
	}

	ctx.ResetMetrics()
	got, err := Collect("c", pb)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("serialized shuffle collected %v, want %v", got, want)
	}
	if n := codec.unmarshals.Load(); n != int64(nonEmpty) {
		t.Fatalf("collect unmarshal calls = %d, want %d (one per stored block)", n, nonEmpty)
	}
	if n := codec.marshals.Load(); n != int64(nonEmpty) {
		t.Fatalf("collect encoded: %d marshal calls in all, want %d", n, nonEmpty)
	}
	if n := sumTasks(t, ctx.Metrics(), "c", func(tk TaskMetrics) int64 { return int64(tk.InputItems) }); n != 300 {
		t.Fatalf("collect read %d items, want 300", n)
	}
}

// sumTasks sums f over the tasks of the stage named name, which must exist.
func sumTasks(t *testing.T, m Metrics, name string, f func(TaskMetrics) int64) int64 {
	t.Helper()
	for _, s := range m.Stages {
		if s.Name == name {
			var n int64
			for _, tk := range s.Tasks {
				n += f(tk)
			}
			return n
		}
	}
	t.Fatalf("no stage %q", name)
	return 0
}
