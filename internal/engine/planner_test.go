package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/gpf-go/gpf/internal/testutil/leakcheck"
	"github.com/gpf-go/gpf/internal/testutil/reclaim"
)

// explodingCodec fails every Marshal — the materialization-time error source
// for the shared-prefix regression test.
type explodingCodec struct{}

func (explodingCodec) Name() string { return "exploding" }
func (explodingCodec) Marshal([]fakeRec) ([]byte, error) {
	return nil, fmt.Errorf("exploding codec: kaboom")
}
func (explodingCodec) Unmarshal([]byte) ([]fakeRec, error) {
	return nil, fmt.Errorf("exploding codec: kaboom")
}

// TestPlannerDiamondDisjointConsumers: two consumers of a shared prefix need
// disjoint fields. Unforced, each arm runs the prefix in its own tasks and
// stores nothing in between; forced, the prefix materializes once, as its own
// stage, with every field — narrowing to either consumer's mask would feed
// the other zeros. Both ways, every arm reads whole records.
func TestPlannerDiamondDisjointConsumers(t *testing.T) {
	for _, persist := range []bool{false, true} {
		ctx := NewContext(2)
		base := storeFake(t, ctx, fakeRecs(40), fakeColCodec{})
		shared, err := Map("shared", base, Serializer[fakeRec](fakeColCodec{}),
			func(r fakeRec) fakeRec { return r })
		if err != nil {
			t.Fatal(err)
		}
		armA, err := Map("armA", shared, Serializer[fakeRec](fakeColCodec{}),
			func(r fakeRec) fakeRec { return fakeRec{A: r.A * 2} })
		if err != nil {
			t.Fatal(err)
		}
		armB, err := Map("armB", shared, Serializer[fakeRec](fakeColCodec{}),
			func(r fakeRec) fakeRec { return fakeRec{B: r.B + 7} })
		if err != nil {
			t.Fatal(err)
		}
		if persist {
			if err := shared.Force(); err != nil {
				t.Fatal(err)
			}
		}
		// Each arm is read by its own action.
		outA, err := Collect("collectA", armA)
		if err != nil {
			t.Fatal(err)
		}
		outB, err := Collect("collectB", armB)
		if err != nil {
			t.Fatal(err)
		}
		if len(outA) != 40 || len(outB) != 40 {
			t.Fatalf("persist=%v: got %d/%d records", persist, len(outA), len(outB))
		}
		for i := range outA {
			if outA[i].A != int32(2*i) || outB[i].B != int32(1000+i+7) {
				t.Fatalf("persist=%v: record %d = %+v/%+v: a pruned field was read downstream", persist, i, outA[i], outB[i])
			}
		}
		var rows []string
		for _, s := range ctx.Metrics().Stages {
			if s.Kind == StageNarrow {
				rows = append(rows, s.Name)
			}
		}
		want := []string{"store", "shared+armA", "shared+armB"}
		if persist {
			want = []string{"store", "shared", "armA", "armB"}
		}
		if !reflect.DeepEqual(rows, want) {
			t.Fatalf("persist=%v: narrow rows = %v, want %v", persist, rows, want)
		}
	}
}

// TestPlannerSharedPrefixErrorPropagates: recording consumers runs nothing,
// and a forced prefix that fails (codec error) keeps its error sticky — the
// Force reports it, and so does every consumer recorded before it, instead of
// reading partial data.
func TestPlannerSharedPrefixErrorPropagates(t *testing.T) {
	ctx := NewContext(2)
	ctx.StoreSerialized = true
	base := Parallelize(ctx, fakeRecs(20), 2)
	shared, err := MapPartitions("explode", base, Serializer[fakeRec](explodingCodec{}),
		func(_ int, items []fakeRec) ([]fakeRec, error) { return items, nil })
	if err != nil {
		t.Fatal(err)
	}
	armA, err := Map("armA", shared, nil, func(r fakeRec) fakeRec { return r })
	if err != nil {
		t.Fatal(err)
	}
	armB, err := Map("armB", shared, nil, func(r fakeRec) fakeRec { return r })
	if err != nil {
		t.Fatal(err)
	}
	if n := ctx.Metrics().NumStages(); n != 0 {
		t.Fatalf("recording two consumers ran %d stages", n)
	}
	if err := shared.Force(); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("shared-prefix materialization error lost: %v", err)
	}
	for _, read := range []func() error{
		func() error { _, err := Collect("collect", armA); return err },
		func() error { _, err := Collect("retry", armB); return err },
		shared.Force,
	} {
		if err := read(); err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("sticky error lost on a later read: %v", err)
		}
	}
}

// TestWideOpRunsAtCall: a wide op executes when it is called — partitions
// readable and both shuffle rows recorded with no Force — and a failing
// input task's own error comes back from the call, as it does from the
// census action.
func TestWideOpRunsAtCall(t *testing.T) {
	base := leakcheck.Snapshot()
	ctx := NewContext(2)
	d := Parallelize(ctx, intRange(100), 4)
	sh, err := PartitionBy("eager", d, 5, func(x int) int { return x })
	if err != nil {
		t.Fatal(err)
	}
	items, err := sh.partition(2, nil)
	if err != nil {
		t.Fatalf("shuffle output not readable without Force: %v", err)
	}
	if len(items) != 20 {
		t.Fatalf("partition 2 has %d items", len(items))
	}
	var rows []string
	for _, s := range ctx.Metrics().Stages {
		rows = append(rows, s.Name)
	}
	if !reflect.DeepEqual(rows, []string{"eager/map", "eager/reduce"}) {
		t.Fatalf("stages recorded at the call = %v, want the two shuffle rows", rows)
	}

	boom := errors.New("map task 3 failed")
	failing, err := MapPartitions("flaky", d, nil, func(p int, items []int) ([]int, error) {
		if p == 3 {
			return nil, boom
		}
		return items, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The lazy input fuses into nothing here: the shuffle forces it, and its
	// task error is what the call returns.
	if _, err := PartitionBy("doomed", failing, 5, func(x int) int { return x }); !errors.Is(err, boom) {
		t.Fatalf("PartitionBy returned %v, want the failing task's own error", err)
	}
	if _, err := CountByKey("doomed-census", failing, func(x int) int { return x }); !errors.Is(err, boom) {
		t.Fatalf("CountByKey returned %v, want the failing task's own error", err)
	}
	base.Check(t, leakcheck.Timeout(3*time.Second))
}

// TestShuffleDoesNotRetainInput: a wide op's result is materialized storage
// and nothing else — once the caller drops the input, the input chain (and
// whatever its closures captured) is garbage while the output is still held.
func TestShuffleDoesNotRetainInput(t *testing.T) {
	type sentinel struct{ payload [1 << 10]byte }
	// input returns a lazy chain whose closure captures a tracked sentinel.
	input := func(ctx *Context) (*Dataset[int], *reclaim.Counter) {
		s, freed := new(sentinel), new(reclaim.Counter)
		freed.Track(s)
		d, err := Map("in", Parallelize(ctx, intRange(64), 4), nil,
			func(x int) int { return x + int(s.payload[0]) })
		if err != nil {
			t.Fatal(err)
		}
		return d, freed
	}
	ctx := NewContext(2)

	in, freed := input(ctx)
	sh, err := PartitionBy("pb", in, 3, func(x int) int { return x })
	if err != nil {
		t.Fatal(err)
	}
	in = nil
	if !freed.Reclaimed(1) {
		t.Fatal("PartitionBy output keeps its input chain reachable")
	}
	if n, err := Count("count-pb", sh); err != nil || n != 64 {
		t.Fatalf("count = %d, %v", n, err)
	}
}

// plannerPropStep appends one random narrow op whose callback reads and
// writes random columns of the toy record.
func plannerPropStep(r *rand.Rand, name string, d *Dataset[fakeRec]) (*Dataset[fakeRec], error) {
	masks := []FieldMask{0, fakeFieldA, fakeFieldB, fakeFieldA | fakeFieldB}
	reads := masks[r.Intn(len(masks))]
	writes := masks[r.Intn(len(masks))]
	val := fakeKey(reads)
	switch r.Intn(3) {
	case 0:
		return Map(name, d, Serializer[fakeRec](fakeColCodec{}), func(rec fakeRec) fakeRec {
			v := val(rec)
			if writes&fakeFieldA != 0 {
				rec.A = v + 3
			}
			if writes&fakeFieldB != 0 {
				rec.B = v - 5
			}
			return rec
		})
	case 1:
		return Filter(name, d, func(rec fakeRec) bool { return val(rec)%3 != 0 })
	default:
		return SortPartitions(name, d, func(a, b fakeRec) bool { return val(a) < val(b) })
	}
}

// fakeKey returns a key function that reads exactly the columns in reads —
// honest for a CountByKey that declares ReadsOnly(reads).
func fakeKey(reads FieldMask) func(fakeRec) int32 {
	return func(rec fakeRec) int32 {
		var v int32
		if reads&fakeFieldA != 0 {
			v += rec.A
		}
		if reads&fakeFieldB != 0 {
			v += rec.B
		}
		return v
	}
}

// TestPlannerRandomizedPlans is the equivalence property of the one place a
// mask lands: over StoreSerialized columnar blocks, random narrow chains
// (optionally through a shuffle) ending in a CountByKey that honestly
// declares its key's columns, and in Count, return what the same dataflow
// returns with nothing declared.
func TestPlannerRandomizedPlans(t *testing.T) {
	type result struct {
		census map[int]int
		count  int
	}
	for trial := 0; trial < 25; trial++ {
		build := func(declare bool) result {
			r := rand.New(rand.NewSource(int64(7000 + trial)))
			ctx := NewContext(1 + r.Intn(4))
			ctx.StoreSerialized = true
			d := WithCodec(Parallelize(ctx, fakeRecs(60+r.Intn(200)), 1+r.Intn(5)),
				Serializer[fakeRec](fakeColCodec{}))
			var err error
			for i, steps := 0, r.Intn(6); i < steps; i++ {
				if d, err = plannerPropStep(r, fmt.Sprintf("t%d/op%d", trial, i), d); err != nil {
					t.Fatal(err)
				}
			}
			if r.Intn(2) == 0 {
				if d, err = PartitionBy(fmt.Sprintf("t%d/shuffle", trial), d, 1+r.Intn(5), func(rec fakeRec) int { return int(rec.A) }); err != nil {
					t.Fatal(err)
				}
			}
			reads := []FieldMask{0, fakeFieldA, fakeFieldB, fakeFieldA | fakeFieldB}[r.Intn(4)]
			var opts []StageOption
			if declare {
				opts = append(opts, ReadsOnly(reads))
			}
			key := fakeKey(reads)
			var res result
			if res.census, err = CountByKey(fmt.Sprintf("t%d/census", trial), d, func(rec fakeRec) int { return int(key(rec)) }, opts...); err != nil {
				t.Fatal(err)
			}
			if res.count, err = Count(fmt.Sprintf("t%d/count", trial), d); err != nil {
				t.Fatal(err)
			}
			return res
		}
		declared, undeclared := build(true), build(false)
		if !reflect.DeepEqual(declared, undeclared) {
			t.Fatalf("trial %d: the declaration changed the result\n  declared: %v\nundeclared: %v", trial, declared, undeclared)
		}
	}
}
