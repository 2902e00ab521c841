package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func intRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestParallelizePartitioning(t *testing.T) {
	ctx := NewContext(2)
	d := Parallelize(ctx, intRange(10), 3)
	if d.NumPartitions() != 3 {
		t.Fatalf("partitions = %d", d.NumPartitions())
	}
	all, err := Collect("collect", d)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 10 {
		t.Fatalf("collected %d items", len(all))
	}
	for i, v := range all {
		if v != i {
			t.Fatalf("order not preserved: all[%d] = %d", i, v)
		}
	}
}

func TestParallelizeEdgeCases(t *testing.T) {
	ctx := NewContext(1)
	// More partitions than items.
	d := Parallelize(ctx, []int{1, 2}, 8)
	all, err := Collect("c", d)
	if err != nil || len(all) != 2 {
		t.Fatalf("collect = %v, %v", all, err)
	}
	// Zero partitions clamps to 1.
	d2 := Parallelize(ctx, []int{1}, 0)
	if d2.NumPartitions() != 1 {
		t.Fatal("numPartitions should clamp to 1")
	}
	// Empty input.
	d3 := Parallelize(ctx, []int(nil), 4)
	if n, err := Count("count", d3); err != nil || n != 0 {
		t.Fatalf("count = %d, %v", n, err)
	}
}

func TestMapFilterFlatMap(t *testing.T) {
	ctx := NewContext(4)
	d := Parallelize(ctx, intRange(100), 7)
	doubled, err := Map("double", d, nil, func(x int) int { return 2 * x })
	if err != nil {
		t.Fatal(err)
	}
	evens, err := Filter("evens", doubled, func(x int) bool { return x%4 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	expanded, err := FlatMap("expand", evens, nil, func(x int) []int { return []int{x, x + 1} })
	if err != nil {
		t.Fatal(err)
	}
	n, err := Count("count", expanded)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 { // 50 evens × 2
		t.Fatalf("count = %d, want 100", n)
	}
}

func TestReduce(t *testing.T) {
	ctx := NewContext(3)
	d := Parallelize(ctx, intRange(101), 5)
	sum, ok, err := Reduce("sum", d, func(a, b int) int { return a + b })
	if err != nil || !ok {
		t.Fatalf("reduce: %v %v", ok, err)
	}
	if sum != 5050 {
		t.Fatalf("sum = %d", sum)
	}
	empty := Parallelize(ctx, []int(nil), 3)
	_, ok, err = Reduce("sum", empty, func(a, b int) int { return a + b })
	if err != nil || ok {
		t.Fatalf("empty reduce should report not-found: %v %v", ok, err)
	}
}

func TestPartitionByRouting(t *testing.T) {
	ctx := NewContext(2)
	d := Parallelize(ctx, intRange(50), 4)
	byMod, err := PartitionBy("bykey", d, 5, func(x int) int { return x })
	if err != nil {
		t.Fatal(err)
	}
	if byMod.NumPartitions() != 5 {
		t.Fatalf("partitions = %d", byMod.NumPartitions())
	}
	// Every partition must hold exactly the values congruent to its index.
	for p := 0; p < 5; p++ {
		items, err := byMod.partition(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != 10 {
			t.Fatalf("partition %d has %d items", p, len(items))
		}
		for _, v := range items {
			if v%5 != p {
				t.Fatalf("value %d in partition %d", v, p)
			}
		}
	}
}

func TestPartitionByNegativeKeys(t *testing.T) {
	ctx := NewContext(1)
	d := Parallelize(ctx, []int{-7, -3, 2}, 1)
	res, err := PartitionBy("neg", d, 4, func(x int) int { return x })
	if err != nil {
		t.Fatal(err)
	}
	n, err := Count("count", res)
	if err != nil || n != 3 {
		t.Fatalf("count = %d, %v", n, err)
	}
	if _, err := PartitionBy("bad", d, 0, func(x int) int { return x }); err == nil {
		t.Fatal("numPartitions 0 must error")
	}
}

func TestShuffleAccounting(t *testing.T) {
	ctx := NewContext(2)
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
	if wr == 0 || rd == 0 {
		t.Fatalf("shuffle bytes not recorded: write=%d read=%d", wr, rd)
	}
	if wr != rd {
		t.Fatalf("write %d != read %d: every written bucket must be read", wr, rd)
	}
	// Shuffle creates two stages (map + reduce) of kind shuffle.
	shuffleStages := 0
	for _, s := range m.Stages {
		if s.Kind == StageShuffle {
			shuffleStages++
		}
	}
	if shuffleStages != 2 {
		t.Fatalf("shuffle stages = %d, want 2", shuffleStages)
	}
}

func TestSortPartitions(t *testing.T) {
	ctx := NewContext(2)
	d := Parallelize(ctx, []int{5, 3, 1, 4, 2, 0}, 2)
	s, err := SortPartitions("sort", d, func(a, b int) bool { return a < b })
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < s.NumPartitions(); p++ {
		items, _ := s.partition(p, nil)
		if !sort.IntsAreSorted(items) {
			t.Fatalf("partition %d not sorted: %v", p, items)
		}
	}
}

func TestCountByKey(t *testing.T) {
	ctx := NewContext(2)
	d := Parallelize(ctx, intRange(30), 3)
	counts, err := CountByKey("census", d, func(x int) int { return x % 3 })
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 10 || counts[1] != 10 || counts[2] != 10 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestTaskErrorPropagation(t *testing.T) {
	ctx := NewContext(2)
	d := Parallelize(ctx, intRange(10), 4)
	wantErr := errors.New("boom")
	// Narrow ops are lazy: the op call succeeds, the error surfaces when a
	// barrier forces the fused chain, wrapped with the failing op's name.
	failing, err := MapPartitions("failing", d, nil, func(p int, items []int) ([]int, error) {
		if p == 2 {
			return nil, wantErr
		}
		return items, nil
	})
	if err != nil {
		t.Fatalf("lazy op should not error at record time: %v", err)
	}
	_, err = Collect("c", failing)
	if err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want wrap of boom", err)
	}
	if !strings.Contains(err.Error(), "failing") {
		t.Fatalf("error should name the stage: %v", err)
	}
}

func TestTaskPanicRecovered(t *testing.T) {
	ctx := NewContext(2)
	d := Parallelize(ctx, intRange(10), 4)
	m, err := Map("panicky", d, nil, func(x int) int {
		if x == 7 {
			panic("executor died")
		}
		return x
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Count("count", m); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic should surface as error, got %v", err)
	}
}

func TestSerializedStorage(t *testing.T) {
	ctx := NewContext(2)
	ctx.StoreSerialized = true
	d := WithCodec(Parallelize(ctx, intRange(100), 4), GobCodec[int]{})
	m, err := Map("ser", d, GobCodec[int]{}, func(x int) int { return x + 1 })
	if err != nil {
		t.Fatal(err)
	}
	// Lazy until forced; Force materializes the serialized blocks.
	if err := m.Force(); err != nil {
		t.Fatal(err)
	}
	if m.MemoryBytes() == 0 {
		t.Fatal("serialized dataset should report resident bytes")
	}
	all, err := Collect("c", m)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 100 || all[0] != 1 {
		t.Fatalf("collected %v...", all[:3])
	}
	// Serialize time recorded.
	var ser int64
	for _, s := range ctx.Metrics().Stages {
		ser += int64(s.SerializeTime())
	}
	if ser == 0 {
		t.Fatal("serialize time not recorded")
	}
}

func TestBroadcast(t *testing.T) {
	ctx := NewContext(2)
	b := NewBroadcast(ctx, "mask-table", map[string]int{"a": 1}, 1<<20)
	if b.Value["a"] != 1 {
		t.Fatal("broadcast value lost")
	}
	m := ctx.Metrics()
	if len(m.Stages) != 1 || m.Stages[0].Kind != StageAction {
		t.Fatalf("broadcast stage missing: %+v", m.Stages)
	}
	if m.Stages[0].ShuffleWriteBytes() != 1<<20 {
		t.Fatal("broadcast bytes not charged")
	}
}

func TestMetricsAggregation(t *testing.T) {
	ctx := NewContext(2)
	d := Parallelize(ctx, intRange(500), 4)
	d2, err := Map("m", d, nil, func(x int) int { return x })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PartitionBy("p", d2, 4, func(x int) int { return x }); err != nil {
		t.Fatal(err)
	}
	m := ctx.Metrics()
	if m.NumStages() != 3 { // map, shuffle/map, shuffle/reduce
		t.Fatalf("stages = %d, want 3", m.NumStages())
	}
	if m.TotalShuffleBytes() == 0 {
		t.Fatal("total shuffle bytes zero")
	}
	if m.TotalTaskTime() <= 0 {
		t.Fatal("task time zero")
	}
	for _, st := range m.Stages {
		if st.HeapBytes <= 0 {
			t.Fatalf("stage %q recorded no heap sample", st.Name)
		}
	}
	// Merged across ranks, a stage's heap is the largest rank's and its GC
	// pause the sum.
	rank0 := Metrics{Stages: []StageMetrics{{HeapBytes: 10, GCPause: 1}, {HeapBytes: 30, GCPause: 1}}}
	rank1 := Metrics{Stages: []StageMetrics{{HeapBytes: 20, GCPause: 2}, {HeapBytes: 5, GCPause: 2}}}
	for i, st := range rank0.MergeRanks(rank1).Stages {
		if want := []int64{20, 30}[i]; st.HeapBytes != want || st.GCPause != 3 {
			t.Fatalf("merged stage %d: heap %d, pause %v; want %d, 3", i, st.HeapBytes, st.GCPause, want)
		}
	}
	ctx.ResetMetrics()
	if ctx.Metrics().NumStages() != 0 {
		t.Fatal("reset failed")
	}
}

// Property: PartitionBy preserves the multiset of items for arbitrary inputs
// and partition counts.
func TestPartitionByPreservesItemsProperty(t *testing.T) {
	ctx := NewContext(2)
	f := func(items []int16, nParts uint8) bool {
		n := int(nParts%8) + 1
		in := make([]int, len(items))
		for i, v := range items {
			in[i] = int(v)
		}
		d := Parallelize(ctx, in, 3)
		res, err := PartitionBy("prop", d, n, func(x int) int { return x })
		if err != nil {
			return false
		}
		out, err := Collect("c", res)
		if err != nil {
			return false
		}
		if len(out) != len(in) {
			return false
		}
		sort.Ints(in)
		sort.Ints(out)
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: chained narrow ops compose like function composition.
func TestMapCompositionProperty(t *testing.T) {
	ctx := NewContext(2)
	f := func(items []int32) bool {
		in := make([]int, len(items))
		for i, v := range items {
			in[i] = int(v)
		}
		d := Parallelize(ctx, in, 4)
		a, err := Map("f", d, nil, func(x int) int { return x*3 + 1 })
		if err != nil {
			return false
		}
		b, err := Map("g", a, nil, func(x int) int { return x - 2 })
		if err != nil {
			return false
		}
		out, err := Collect("c", b)
		if err != nil {
			return false
		}
		for i := range in {
			if out[i] != in[i]*3-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkerPoolParallelism(t *testing.T) {
	// Ensure many partitions on few workers completes (semaphore correctness).
	ctx := NewContext(2)
	d := Parallelize(ctx, intRange(10000), 64)
	sum, ok, err := Reduce("sum", d, func(a, b int) int { return a + b })
	if err != nil || !ok {
		t.Fatal(err)
	}
	if sum != 10000*9999/2 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestNewContextDefaults(t *testing.T) {
	if NewContext(0).Workers() < 1 {
		t.Fatal("workers must default to >= 1")
	}
	if NewContext(7).Workers() != 7 {
		t.Fatal("workers not stored")
	}
}

func BenchmarkShuffle(b *testing.B) {
	ctx := NewContext(4)
	d := Parallelize(ctx, intRange(100000), 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PartitionBy(fmt.Sprintf("bench%d", i), d, 16, func(x int) int { return x }); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNilDatasetErrors: every op handed a nil dataset returns an error naming
// the op instead of dereferencing it, and WithCodec passes the nil on to the
// op that reads it.
func TestNilDatasetErrors(t *testing.T) {
	var d *Dataset[int]
	id := func(x int) int { return x }
	ops := map[string]func() error{
		"force": d.Force,
		"map":   func() error { _, err := Map("map", d, nil, id); return err },
		"map-partitions": func() error {
			_, err := MapPartitions("map-partitions", d, nil, func(_ int, xs []int) ([]int, error) { return xs, nil })
			return err
		},
		"flat-map": func() error {
			_, err := FlatMap("flat-map", d, nil, func(x int) []int { return []int{x} })
			return err
		},
		"filter": func() error { _, err := Filter("filter", d, func(int) bool { return true }); return err },
		"sort": func() error {
			_, err := SortPartitions("sort", d, func(a, b int) bool { return a < b })
			return err
		},
		"partition-by": func() error { _, err := PartitionBy("partition-by", d, 2, id); return err },
		"collect":      func() error { _, err := Collect("collect", d); return err },
		"reduce": func() error {
			_, _, err := Reduce("reduce", d, func(a, b int) int { return a + b })
			return err
		},
		"count":        func() error { _, err := Count("count", d); return err },
		"count-by-key": func() error { _, err := CountByKey("count-by-key", d, id); return err },
		"codec-count": func() error {
			_, err := Count("codec-count", WithCodec(d, Serializer[int](GobCodec[int]{})))
			return err
		},
	}
	for name, op := range ops {
		err := op()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
			t.Errorf("%s on a nil dataset: err = %v, want one naming %q", name, err, name)
		}
	}
}
