package engine

import (
	"reflect"
	"testing"
)

// TestShuffleKeepsBuckets: in both storage modes a shuffle's reduce stores
// the buckets it fetched as its partition. PartitionBy encodes each non-empty
// bucket once and decodes nothing; the result stores exactly the bytes the
// map side wrote; the reduce tasks report OutputItems 0, the count being the
// consumer's InputItems; and a later Collect decodes each stored block once
// and returns the items in shuffle order.
func TestShuffleKeepsBuckets(t *testing.T) {
	const in, out = 4, 6
	items := intRange(300)
	// Keys 0..4 only: each map partition feeds two or three reduces, and
	// reduce 5 gets no bucket at all.
	key := func(x int) int { return x / 60 }
	nonEmpty := 0
	var want []int
	for r := range out {
		for m := range in {
			bucket := 0
			for _, x := range items[m*75 : (m+1)*75] {
				if key(x)%out == r {
					want = append(want, x)
					bucket++
				}
			}
			if bucket > 0 {
				nonEmpty++
			}
		}
	}

	for _, serialized := range []bool{false, true} {
		ctx := NewContext(2)
		ctx.StoreSerialized = serialized
		codec := newCountingCodec[int]()
		pb, err := PartitionBy("pb", WithCodec(Parallelize(ctx, items, in), Serializer[int](codec)), out, key)
		if err != nil {
			t.Fatal(err)
		}
		if got := codec.marshals.Load(); got != int64(nonEmpty) {
			t.Fatalf("serialized=%v: shuffle marshal calls = %d, want %d (one per non-empty bucket)", serialized, got, nonEmpty)
		}
		if got := codec.unmarshals.Load(); got != 0 {
			t.Fatalf("serialized=%v: shuffle unmarshal calls = %d, want 0", serialized, got)
		}
		m := ctx.Metrics()
		if n := sumTasks(t, m, "pb/reduce", func(tk TaskMetrics) int64 { return tk.DecodedBytes }); n != 0 {
			t.Fatalf("serialized=%v: reduces decoded %d bytes, want 0", serialized, n)
		}
		if n := sumTasks(t, m, "pb/reduce", func(tk TaskMetrics) int64 { return int64(tk.OutputItems) }); n != 0 {
			t.Fatalf("serialized=%v: reduces report %d output items, want 0", serialized, n)
		}
		written := sumTasks(t, m, "pb/map", func(tk TaskMetrics) int64 { return tk.ShuffleWriteBytes })
		if got := pb.MemoryBytes(); got != written {
			t.Fatalf("serialized=%v: MemoryBytes = %d, want the %d shuffle-write bytes", serialized, got, written)
		}

		ctx.ResetMetrics()
		got, err := Collect("c", pb)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("serialized=%v: shuffle collected %v, want %v", serialized, got, want)
		}
		if n := codec.unmarshals.Load(); n != int64(nonEmpty) {
			t.Fatalf("serialized=%v: collect unmarshal calls = %d, want %d (one per stored block)", serialized, n, nonEmpty)
		}
		if n := codec.marshals.Load(); n != int64(nonEmpty) {
			t.Fatalf("serialized=%v: collect encoded: %d marshal calls in all, want %d", serialized, n, nonEmpty)
		}
		if n := sumTasks(t, ctx.Metrics(), "c", func(tk TaskMetrics) int64 { return int64(tk.InputItems) }); n != 300 {
			t.Fatalf("serialized=%v: collect read %d items, want 300", serialized, n)
		}
	}
}

// TestShuffleWithoutCodecStoresGob: a shuffle of a codec-less dataset
// encodes its buckets with gob and stores them, and swapping the codec on
// the result afterwards still decodes them with gob — the codec that wrote
// them — while the new codec is never asked to decode.
func TestShuffleWithoutCodecStoresGob(t *testing.T) {
	ctx := NewContext(2)
	pb, err := PartitionBy("pb", Parallelize(ctx, intRange(100), 3), 4, func(x int) int { return x })
	if err != nil {
		t.Fatal(err)
	}
	if pb.Codec() != nil {
		t.Fatalf("result codec = %v, want none (the input's)", pb.Codec())
	}
	if _, ok := pb.blockCodec.(GobCodec[int]); !ok || pb.MemoryBytes() == 0 {
		t.Fatalf("stored %d bytes with %v, want gob blocks", pb.MemoryBytes(), pb.blockCodec)
	}
	other := newCountingCodec[int]()
	got, err := Collect("c", WithCodec(pb, Serializer[int](other)))
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for r := range 4 {
		for x := r; x < 100; x += 4 {
			want = append(want, x)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("collected %v, want %v", got, want)
	}
	if n := other.unmarshals.Load(); n != 0 {
		t.Fatalf("the swapped-in codec decoded %d blocks, want 0", n)
	}
}

// TestBarrierCopyEncodesNothing: under StoreSerialized, a barrier reads a
// lazy input through a copy held as items, so collecting a lazy chain whose
// output carries a codec calls no codec at all — the storage level applies
// to what Force stores, not to a barrier's transient copy.
func TestBarrierCopyEncodesNothing(t *testing.T) {
	ctx := NewContext(2)
	ctx.StoreSerialized = true
	codec := newCountingCodec[int]()
	m, err := Map("inc", Parallelize(ctx, intRange(50), 3), Serializer[int](codec), func(x int) int { return x + 1 })
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect("c", m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 || got[0] != 1 || got[49] != 50 {
		t.Fatalf("collected %v", got)
	}
	if n, u := codec.marshals.Load(), codec.unmarshals.Load(); n != 0 || u != 0 {
		t.Fatalf("collect of a lazy chain made %d marshal and %d unmarshal calls, want 0 and 0", n, u)
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
