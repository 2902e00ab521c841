package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// countingCodec wraps GobCodec and counts codec invocations, so tests
// can assert that fused chains pay no intermediate round-trips.
type countingCodec[T any] struct {
	marshals, unmarshals *atomic.Int64
}

func newCountingCodec[T any]() countingCodec[T] {
	return countingCodec[T]{marshals: new(atomic.Int64), unmarshals: new(atomic.Int64)}
}

func (countingCodec[T]) Name() string { return "counting" }

func (c countingCodec[T]) Marshal(items []T) ([]byte, error) {
	c.marshals.Add(1)
	return GobCodec[T]{}.Marshal(items)
}

func (c countingCodec[T]) Unmarshal(data []byte) ([]T, error) {
	c.unmarshals.Add(1)
	return GobCodec[T]{}.Unmarshal(data)
}

func TestFusionSingleStagePerChain(t *testing.T) {
	ctx := NewContext(2)
	d := Parallelize(ctx, intRange(100), 4)
	m, err := Map("double", d, nil, func(x int) int { return 2 * x })
	if err != nil {
		t.Fatal(err)
	}
	f, err := Filter("evens", m, func(x int) bool { return x%4 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	fm, err := FlatMap("expand", f, nil, func(x int) []int { return []int{x, x + 1} })
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Metrics().NumStages() != 0 {
		t.Fatalf("narrow ops must not execute eagerly: %d stages", ctx.Metrics().NumStages())
	}
	out, err := Collect("c", fm)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("collected %d items, want 100", len(out))
	}
	m2 := ctx.Metrics()
	// One fused narrow stage + the collect action.
	if m2.NumStages() != 2 {
		t.Fatalf("stages = %d, want 2 (fused chain + action)", m2.NumStages())
	}
	fused := m2.Stages[0]
	if fused.Kind != StageNarrow {
		t.Fatalf("fused stage kind = %v", fused.Kind)
	}
	if fused.Name != "double+evens+expand" {
		t.Fatalf("fused stage name = %q", fused.Name)
	}
	if fused.FusedOps != 3 {
		t.Fatalf("FusedOps = %d, want 3", fused.FusedOps)
	}
	if m2.TotalFusedOps() != 3 {
		t.Fatalf("TotalFusedOps = %d, want 3", m2.TotalFusedOps())
	}
	// Task metrics flow through the chain: input of the chain, output of the
	// final op.
	var in, outItems int
	for _, tk := range fused.Tasks {
		in += tk.InputItems
		outItems += tk.OutputItems
	}
	if in != 100 || outItems != 100 {
		t.Fatalf("fused stage items in=%d out=%d, want 100/100", in, outItems)
	}
}

func TestFusionNoIntermediateCodecRoundTrips(t *testing.T) {
	ctx := NewContext(2)
	ctx.StoreSerialized = true
	codec := newCountingCodec[int]()
	d := WithCodec(Parallelize(ctx, intRange(200), 4), codec)
	cur := d
	for i := 0; i < 3; i++ {
		var err error
		cur, err = Map(fmt.Sprintf("m%d", i), cur, Serializer[int](codec), func(x int) int { return x + 1 })
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := cur.Force(); err != nil {
		t.Fatal(err)
	}
	if _, err := Collect("c", cur); err != nil {
		t.Fatal(err)
	}
	// One encode per partition at the force point, one decode per partition
	// at the collect — nothing in between.
	if got := codec.marshals.Load(); got != 4 {
		t.Fatalf("marshal calls = %d, want 4 (one per partition)", got)
	}
	if got := codec.unmarshals.Load(); got != 4 {
		t.Fatalf("unmarshal calls = %d, want 4 (one per partition)", got)
	}

	// The unfused reference — Force() after each op — pays a round-trip per op.
	eager := NewContext(2)
	eager.StoreSerialized = true
	ecodec := newCountingCodec[int]()
	ed := WithCodec(Parallelize(eager, intRange(200), 4), ecodec)
	for i := 0; i < 3; i++ {
		var err error
		ed, err = Map(fmt.Sprintf("m%d", i), ed, Serializer[int](ecodec), func(x int) int { return x + 1 })
		if err != nil {
			t.Fatal(err)
		}
		if err := ed.Force(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Collect("c", ed); err != nil {
		t.Fatal(err)
	}
	if got := ecodec.marshals.Load(); got <= 4 {
		t.Fatalf("eager marshal calls = %d, want > 4", got)
	}
	if got := ecodec.unmarshals.Load(); got <= 4 {
		t.Fatalf("eager unmarshal calls = %d, want > 4", got)
	}
}

// chainSpec drives the equivalence property: a random chain of narrow ops
// applied over random input.
type chainSpec struct {
	items []int16
	ops   []uint8
}

// applyChain builds the op chain over d in ctx and returns the collected
// result. Op kinds cycle map/filter/flatMap with parameters from the spec.
// forceEach materializes every op's output before the next is recorded: the
// unfused, one-stage-per-op reference.
func applyChain(ctx *Context, spec chainSpec, serialized, forceEach bool) ([]int, error) {
	in := make([]int, len(spec.items))
	for i, v := range spec.items {
		in[i] = int(v)
	}
	d := Parallelize(ctx, in, 3)
	if serialized {
		d = WithCodec(d, GobCodec[int]{})
	}
	cur := d
	for i, op := range spec.ops {
		var err error
		name := fmt.Sprintf("op%d", i)
		switch k := int(op % 3); k {
		case 0:
			mul := int(op%5) + 1
			cur, err = Map(name, cur, cur.Codec(), func(x int) int { return x*mul + k })
		case 1:
			mod := int(op%4) + 2
			cur, err = Filter(name, cur, func(x int) bool { return x%mod != 0 })
		default:
			rep := int(op % 3)
			cur, err = FlatMap(name, cur, cur.Codec(), func(x int) []int {
				out := make([]int, rep)
				for j := range out {
					out[j] = x + j
				}
				return out
			})
		}
		if err == nil && forceEach {
			err = cur.Force()
		}
		if err != nil {
			return nil, err
		}
	}
	return Collect("collect", cur)
}

// Property: fused execution is item-for-item equivalent to forcing every op
// on its own, for random chains of map/filter/flatMap, with and without
// serialized storage.
func TestFusionEquivalenceProperty(t *testing.T) {
	for _, serialized := range []bool{false, true} {
		name := "materialized"
		if serialized {
			name = "serialized"
		}
		t.Run(name, func(t *testing.T) {
			f := func(items []int16, ops []uint8) bool {
				if len(ops) > 8 {
					ops = ops[:8]
				}
				spec := chainSpec{items: items, ops: ops}
				fusedCtx := NewContext(2)
				fusedCtx.StoreSerialized = serialized
				eagerCtx := NewContext(2)
				eagerCtx.StoreSerialized = serialized
				fused, err := applyChain(fusedCtx, spec, serialized, false)
				if err != nil {
					return false
				}
				eager, err := applyChain(eagerCtx, spec, serialized, true)
				if err != nil {
					return false
				}
				if len(fused) != len(eager) {
					return false
				}
				for i := range fused {
					if fused[i] != eager[i] {
						return false
					}
				}
				// The fused run needs exactly one narrow stage per chain (plus
				// the collect action); the forced run needs one per op.
				fm, em := fusedCtx.Metrics(), eagerCtx.Metrics()
				wantFused := 2
				if len(ops) == 0 {
					wantFused = 1
				}
				return fm.NumStages() == wantFused && em.NumStages() == len(ops)+1
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(7))}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFusionDiamondForcesSharedPrefix: the engine counts no consumers, so a
// lazy prefix two arms read runs inside each arm's tasks, once per arm —
// until the caller forces it (persist), after which both arms read the
// stored result and the prefix runs once.
func TestFusionDiamondForcesSharedPrefix(t *testing.T) {
	for _, persist := range []bool{false, true} {
		ctx := NewContext(2)
		var rootRuns atomic.Int64
		d := Parallelize(ctx, intRange(60), 3)
		shared, err := Map("shared", d, nil, func(x int) int {
			rootRuns.Add(1)
			return x + 1
		})
		if err != nil {
			t.Fatal(err)
		}
		left, err := Map("left", shared, nil, func(x int) int { return x * 2 })
		if err != nil {
			t.Fatal(err)
		}
		right, err := Map("right", shared, nil, func(x int) int { return x * 3 })
		if err != nil {
			t.Fatal(err)
		}
		// A single-consumer op between the read and the branch point.
		leftTail, err := Map("left-tail", left, nil, func(x int) int { return x })
		if err != nil {
			t.Fatal(err)
		}
		if persist {
			if err := shared.Force(); err != nil {
				t.Fatal(err)
			}
		}
		ls, err := Collect("l", leftTail)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := Collect("r", right)
		if err != nil {
			t.Fatal(err)
		}
		if len(ls) != 60 || len(rs) != 60 || ls[0] != 2 || rs[0] != 3 {
			t.Fatalf("persist=%v: diamond results wrong: %d/%d items", persist, len(ls), len(rs))
		}
		want := int64(120) // once per item per arm
		if persist {
			want = 60
		}
		if got := rootRuns.Load(); got != want {
			t.Fatalf("persist=%v: shared op ran %d times, want %d", persist, got, want)
		}
	}
}

// TestFusedStageNamedAfterOpsRun: a stage row names the ops its tasks ran.
// shared -> {armA, armB}, each arm read by its own action: unforced, each
// arm's row runs "shared" too and counts it in FusedOps; with "shared"
// forced first, it runs as one row of its own and no arm claims it again.
func TestFusedStageNamedAfterOpsRun(t *testing.T) {
	for _, tc := range []struct {
		persist bool
		want    []string
	}{
		{false, []string{"shared+armA/2", "shared+armB/2"}},
		{true, []string{"shared/1", "armA/1", "armB/1"}},
	} {
		ctx := NewContext(2)
		d := Parallelize(ctx, intRange(40), 2)
		shared, err := Map("shared", d, nil, func(x int) int { return x + 1 })
		if err != nil {
			t.Fatal(err)
		}
		armA, err := Map("armA", shared, nil, func(x int) int { return x * 2 })
		if err != nil {
			t.Fatal(err)
		}
		armB, err := Map("armB", shared, nil, func(x int) int { return x * 3 })
		if err != nil {
			t.Fatal(err)
		}
		if tc.persist {
			if err := shared.Force(); err != nil {
				t.Fatal(err)
			}
		}
		for _, arm := range []*Dataset[int]{armA, armB} {
			if _, err := Collect("c", arm); err != nil {
				t.Fatal(err)
			}
		}
		var rows []string
		for _, s := range ctx.Metrics().Stages {
			if s.Kind == StageNarrow {
				rows = append(rows, fmt.Sprintf("%s/%d", s.Name, s.FusedOps))
			}
		}
		if !reflect.DeepEqual(rows, tc.want) {
			t.Fatalf("persist=%v: narrow rows = %v, want %v", tc.persist, rows, tc.want)
		}
	}
}

func TestFusionForceIsIdempotent(t *testing.T) {
	ctx := NewContext(2)
	d := Parallelize(ctx, intRange(50), 4)
	m, err := Map("m", d, nil, func(x int) int { return x + 1 })
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Force(); err != nil {
		t.Fatal(err)
	}
	stages := ctx.Metrics().NumStages()
	if err := m.Force(); err != nil {
		t.Fatal(err)
	}
	if _, err := Count("count", m); err != nil {
		t.Fatal(err)
	}
	// Re-forcing and acting on a materialized dataset must not re-run the
	// fused stage.
	if got := ctx.Metrics().NumStages(); got != stages+1 {
		t.Fatalf("stages = %d, want %d (+1 action only)", got, stages+1)
	}
}

func TestFusionShuffleIsBarrier(t *testing.T) {
	ctx := NewContext(2)
	d := Parallelize(ctx, intRange(100), 4)
	m, err := Map("pre", d, nil, func(x int) int { return x + 1 })
	if err != nil {
		t.Fatal(err)
	}
	s, err := PartitionBy("shuf", m, 4, func(x int) int { return x })
	if err != nil {
		t.Fatal(err)
	}
	post, err := Map("post", s, nil, func(x int) int { return x * 2 })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Count("count", post); err != nil {
		t.Fatal(err)
	}
	m2 := ctx.Metrics()
	// fused(pre) + shuf/map + shuf/reduce + fused(post) + count = 5 stages;
	// the chain does not fuse across the shuffle.
	if m2.NumStages() != 5 {
		names := make([]string, 0, len(m2.Stages))
		for _, st := range m2.Stages {
			names = append(names, st.Name)
		}
		t.Fatalf("stages = %d (%v), want 5", m2.NumStages(), names)
	}
	if m2.Stages[0].Name != "pre" || m2.Stages[0].FusedOps != 1 {
		t.Fatalf("pre-shuffle fused stage wrong: %+v", m2.Stages[0])
	}
}

func TestWithCodecOnLazyDataset(t *testing.T) {
	ctx := NewContext(2)
	ctx.StoreSerialized = true
	d := Parallelize(ctx, intRange(40), 4)
	m, err := Map("m", d, nil, func(x int) int { return x + 1 })
	if err != nil {
		t.Fatal(err)
	}
	coded := WithCodec(m, GobCodec[int]{})
	if err := coded.Force(); err != nil {
		t.Fatal(err)
	}
	if coded.MemoryBytes() == 0 {
		t.Fatal("codec-attached fork should materialize serialized")
	}
	// The original lazy dataset is independent and still usable.
	out, err := Collect("c", m)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 40 || out[0] != 1 {
		t.Fatalf("original chain broken: %v...", out[:2])
	}
}

// TestSortPartitionsFuses: a partition is whole inside one task, so sorting
// needs no barrier — map → sort → map is one fused stage whose output equals
// forcing each step, and under serialized storage forcing it encodes each
// partition once.
func TestSortPartitionsFuses(t *testing.T) {
	build := func(ctx *Context, codec Serializer[int], forceEach bool) []int {
		d := WithCodec(Parallelize(ctx, []int{5, 3, 9, 1, 4, 8, 2, 0, 7, 6}, 3), codec)
		step := func(next *Dataset[int], err error) {
			if err == nil && forceEach {
				err = next.Force()
			}
			if err != nil {
				t.Fatal(err)
			}
			d = next
		}
		step(Map("neg", d, codec, func(x int) int { return -x }))
		step(SortPartitions("sort", d, func(a, b int) bool { return a < b }))
		step(Map("inc", d, codec, func(x int) int { return x + 1 }))
		if err := d.Force(); err != nil {
			t.Fatal(err)
		}
		out, err := Collect("c", d)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ctx := NewContext(2)
	ctx.StoreSerialized = true
	codec := newCountingCodec[int]()
	fused := build(ctx, codec, false)
	m := ctx.Metrics()
	if m.NumStages() != 2 || m.Stages[0].Name != "neg+sort+inc" || m.Stages[0].FusedOps != 3 {
		t.Fatalf("stages = %+v, want one fused neg+sort+inc row and the collect", m.Stages)
	}
	if got := codec.marshals.Load(); got != 3 {
		t.Fatalf("marshal calls = %d, want 3 (one per partition)", got)
	}
	if want := build(NewContext(2), nil, true); !reflect.DeepEqual(fused, want) {
		t.Fatalf("fused sort = %v, forcing each step = %v", fused, want)
	}
	if want := []int{-8, -4, -2, 0, -7, -3, -1, 1, -6, -5}; !reflect.DeepEqual(fused, want) {
		t.Fatalf("fused sort = %v, want %v", fused, want)
	}
}

// BenchmarkAblationFusion compares a fused chain of three narrow ops against
// forcing each op on its own, under serialized storage — the engine-level
// ablation of the paper's narrow-stage fusion claim (§4.3). Fused runs
// should show fewer allocations (no intermediate partitions) and no
// intermediate codec round-trips.
func BenchmarkAblationFusion(b *testing.B) {
	run := func(b *testing.B, forceEach bool) {
		ctx := NewContext(4)
		ctx.StoreSerialized = true
		force := func(d *Dataset[int], err error) *Dataset[int] {
			if err == nil && forceEach {
				err = d.Force()
			}
			if err != nil {
				b.Fatal(err)
			}
			return d
		}
		base := WithCodec(Parallelize(ctx, intRange(100000), 16), GobCodec[int]{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := force(Map("m", base, GobCodec[int]{}, func(x int) int { return x + 1 }))
			f := force(Filter("f", m, func(x int) bool { return x%3 != 0 }))
			fm := force(FlatMap("fm", f, GobCodec[int]{}, func(x int) []int { return []int{x} }))
			n, err := Count("count", fm)
			if err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				b.Fatal("empty result")
			}
		}
	}
	b.Run("fused", func(b *testing.B) { run(b, false) })
	b.Run("eager", func(b *testing.B) { run(b, true) })
}
