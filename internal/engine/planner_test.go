package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
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

// TestPlannerInfersChainPruning: a consumer declaring Rebuilds(A) over a
// columnar-stored source must decode only column A, inferred by the
// planner's backward pass with no annotation at the read.
func TestPlannerInfersChainPruning(t *testing.T) {
	ctx := NewContext(2)
	base := storeFake(t, ctx, fakeRecs(64), fakeColCodec{})
	ctx.ResetMetrics()
	proj, err := Map("proj", base, Serializer[fakeRec](fakeColCodec{}),
		func(r fakeRec) fakeRec { return fakeRec{A: r.A * 2} }, Rebuilds(fakeFieldA))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect("collect", proj)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out {
		if r.A != int32(2*i) || r.B != 0 {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	m := ctx.Metrics()
	if m.TotalPrunedBytes() == 0 {
		t.Fatal("planner inferred no pruning: column B was decoded")
	}
	var fused *StageMetrics
	for i := range m.Stages {
		if strings.Contains(m.Stages[i].Name, "proj") {
			fused = &m.Stages[i]
		}
	}
	if fused == nil {
		t.Fatalf("no fused stage recorded: %+v", m.Stages)
	}
	if fused.InMask != fakeFieldA {
		t.Fatalf("fused stage InMask = %#x, want %#x", fused.InMask, fakeFieldA)
	}
}

// TestPlannerDiamondDisjointConsumers: two consumers of a shared prefix need
// disjoint fields; the planner must materialize the shared node under the
// UNION of the demands — narrowing to either consumer's mask alone would feed
// the other zeros.
func TestPlannerDiamondDisjointConsumers(t *testing.T) {
	ctx := NewContext(2)
	base := storeFake(t, ctx, fakeRecs(40), fakeColCodec{})
	shared, err := Map("shared", base, Serializer[fakeRec](fakeColCodec{}),
		func(r fakeRec) fakeRec { return r }, ReadsOnly(0))
	if err != nil {
		t.Fatal(err)
	}
	armA, err := Map("armA", shared, Serializer[fakeRec](fakeColCodec{}),
		func(r fakeRec) fakeRec { return fakeRec{A: r.A * 2} }, Rebuilds(fakeFieldA))
	if err != nil {
		t.Fatal(err)
	}
	armB, err := Map("armB", shared, Serializer[fakeRec](fakeColCodec{}),
		func(r fakeRec) fakeRec { return fakeRec{B: r.B + 7} }, Rebuilds(fakeFieldB))
	if err != nil {
		t.Fatal(err)
	}
	zipped := lazyZip2("zip", armA, armB, Serializer[fakeRec](fakeColCodec{}), fieldFX{},
		func(_ int, as, bs []fakeRec) ([]fakeRec, error) {
			if len(as) != len(bs) {
				return nil, fmt.Errorf("zip length mismatch: %d vs %d", len(as), len(bs))
			}
			out := make([]fakeRec, len(as))
			for i := range as {
				out[i] = fakeRec{A: as[i].A, B: bs[i].B}
			}
			return out, nil
		})
	out, err := Collect("collect", zipped)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 40 {
		t.Fatalf("got %d records", len(out))
	}
	for i, r := range out {
		if r.A != int32(2*i) || r.B != int32(1000+i+7) {
			t.Fatalf("record %d = %+v: a pruned field was read downstream", i, r)
		}
	}
	// The shared node materialized as its own stage under the union demand.
	var sharedStage *StageMetrics
	for i := range ctx.Metrics().Stages {
		s := ctx.Metrics().Stages[i]
		if s.Name == "shared" {
			sharedStage = &s
		}
	}
	if sharedStage == nil {
		t.Fatal("shared prefix did not materialize as its own stage")
	}
	if sharedStage.OutMask != fakeFieldA|fakeFieldB {
		t.Fatalf("shared stage OutMask = %#x, want union %#x",
			sharedStage.OutMask, fakeFieldA|fakeFieldB)
	}
}

// TestPlannerSharedPrefixErrorPropagates: materializing a shared prefix
// fails (codec error); the error must surface from the forcing action. The
// pre-planner engine force-materialized shared prefixes at claim time and
// dropped the error on the floor.
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
	// Claiming two consumers must not force (and must not swallow) anything.
	zipped := lazyZip2("zip", armA, armB, nil, fieldFX{},
		func(_ int, as, bs []fakeRec) ([]fakeRec, error) { return as, nil })
	if _, err := Collect("collect", zipped); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("shared-prefix materialization error lost: %v", err)
	}
	// The failure is sticky on the shared node: a retry reports it too.
	if _, err := Collect("retry", armA); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("sticky error lost on retry: %v", err)
	}
}

// TestPlannerShuffleWirePruning: when everything downstream of a shuffle
// needs only column A, the planner must encode the map-side buckets through
// Project(A) — measurably fewer shuffle bytes than the ablation, identical
// output.
func TestPlannerShuffleWirePruning(t *testing.T) {
	run := func(disable bool) ([]fakeRec, int64, Metrics) {
		ctx := NewContext(4)
		ctx.StoreSerialized = true
		ctx.DisableProjectionPlanner = disable
		d := WithCodec(Parallelize(ctx, fakeRecs(2000), 4), Serializer[fakeRec](fakeColCodec{}))
		sh, err := PartitionBy("pb", d, 8,
			func(r fakeRec) int { return int(r.A) }, ReadsOnly(fakeFieldA))
		if err != nil {
			t.Fatal(err)
		}
		proj, err := Map("proj", sh, Serializer[fakeRec](fakeColCodec{}),
			func(r fakeRec) fakeRec { return fakeRec{A: r.A + 1} }, Rebuilds(fakeFieldA))
		if err != nil {
			t.Fatal(err)
		}
		out, err := Collect("collect", proj)
		if err != nil {
			t.Fatal(err)
		}
		m := ctx.Metrics()
		var wire int64
		for _, s := range m.Stages {
			wire += s.ShuffleWriteBytes()
		}
		return out, wire, m
	}
	prunedOut, prunedWire, pm := run(false)
	fullOut, fullWire, _ := run(true)
	if !reflect.DeepEqual(prunedOut, fullOut) {
		t.Fatal("planner changed the shuffle output")
	}
	if prunedWire >= fullWire {
		t.Fatalf("wire pruning ineffective: planner %d bytes, ablation %d", prunedWire, fullWire)
	}
	// The shuffle stage rows record the resolved masks.
	found := false
	for _, s := range pm.Stages {
		if s.Kind == StageShuffle && strings.Contains(s.Name, "pb") {
			found = true
			if s.OutMask != fakeFieldA {
				t.Fatalf("shuffle stage %q OutMask = %#x, want %#x", s.Name, s.OutMask, fakeFieldA)
			}
		}
	}
	if !found {
		t.Fatalf("no shuffle stage recorded: %+v", pm.Stages)
	}
}

// TestPlannerAblationEagerWide: DisableProjectionPlanner restores the
// pre-planner contract — wide ops run at call time, partitions readable and
// metrics recorded with no Force.
func TestPlannerAblationEagerWide(t *testing.T) {
	ctx := NewContext(2)
	ctx.DisableProjectionPlanner = true
	d := Parallelize(ctx, intRange(100), 4)
	sh, err := PartitionBy("eager", d, 5, func(x int) int { return x })
	if err != nil {
		t.Fatal(err)
	}
	items, err := sh.partition(2, nil)
	if err != nil {
		t.Fatalf("eager shuffle output not readable without Force: %v", err)
	}
	if len(items) != 20 {
		t.Fatalf("partition 2 has %d items", len(items))
	}
	if ctx.Metrics().NumStages() == 0 {
		t.Fatal("eager shuffle recorded no stages")
	}
}

// plannerPropOp is one randomly generated, honestly declared operation:
// the callback's reads and writes are derived from the declared masks, so
// equivalence between planner-on and planner-off runs is exactly the
// planner's correctness property (inferred masks never prune a field some
// downstream op reads).
func plannerPropStep(r *rand.Rand, name string, d *Dataset[fakeRec]) (*Dataset[fakeRec], error) {
	masks := []FieldMask{0, fakeFieldA, fakeFieldB, fakeFieldA | fakeFieldB}
	reads := masks[r.Intn(len(masks))]
	writes := masks[r.Intn(len(masks))]
	val := func(rec fakeRec) int32 {
		var v int32
		if reads&fakeFieldA != 0 {
			v += rec.A
		}
		if reads&fakeFieldB != 0 {
			v += rec.B
		}
		return v
	}
	apply := func(rec fakeRec) fakeRec {
		v := val(rec)
		if writes&fakeFieldA != 0 {
			rec.A = v + 3
		}
		if writes&fakeFieldB != 0 {
			rec.B = v - 5
		}
		return rec
	}
	switch r.Intn(5) {
	case 0: // declared map
		return Map(name, d, Serializer[fakeRec](fakeColCodec{}), apply,
			WithEffects(FieldEffects{Reads: reads, Writes: writes}))
	case 1: // undeclared map (conservative: reads everything)
		return Map(name, d, Serializer[fakeRec](fakeColCodec{}), apply)
	case 2: // declared filter on the read fields
		return Filter(name, d, func(rec fakeRec) bool { return val(rec)%3 != 0 }, ReadsOnly(reads))
	case 3: // shuffle routed by the read fields
		return PartitionBy(name, d, 1+r.Intn(5), func(rec fakeRec) int { return int(val(rec)) }, ReadsOnly(reads))
	default: // sort barrier comparing the read fields
		return SortPartitions(name, d, func(a, b fakeRec) bool { return val(a) < val(b) }, ReadsOnly(reads))
	}
}

// TestPlannerRandomizedPlans is the planner equivalence property: random
// chains of honestly-declared ops produce identical results with the planner
// on and off (and identical again on a re-run with the same seed).
func TestPlannerRandomizedPlans(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		build := func(disable bool) []fakeRec {
			r := rand.New(rand.NewSource(int64(7000 + trial)))
			ctx := NewContext(1 + r.Intn(4))
			ctx.StoreSerialized = true
			ctx.DisableProjectionPlanner = disable
			d := WithCodec(Parallelize(ctx, fakeRecs(60+r.Intn(200)), 1+r.Intn(5)),
				Serializer[fakeRec](fakeColCodec{}))
			steps := 2 + r.Intn(6)
			for i := 0; i < steps; i++ {
				var err error
				d, err = plannerPropStep(r, fmt.Sprintf("t%d/op%d", trial, i), d)
				if err != nil {
					t.Fatal(err)
				}
			}
			out, err := Collect(fmt.Sprintf("t%d/collect", trial), d)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		on, off := build(false), build(true)
		if !reflect.DeepEqual(on, off) {
			t.Fatalf("trial %d: planner changed the result\n on: %v\noff: %v", trial, on, off)
		}
	}
}

// TestPlannerWidensForOutOfSessionConsumers: a prefix claimed by a consumer
// the current session cannot see must materialize with every field — the
// unseen consumer's demand is unknowable.
func TestPlannerWidensForOutOfSessionConsumers(t *testing.T) {
	ctx := NewContext(2)
	base := storeFake(t, ctx, fakeRecs(32), fakeColCodec{})
	shared, err := Map("shared", base, Serializer[fakeRec](fakeColCodec{}),
		func(r fakeRec) fakeRec { return r }, ReadsOnly(0))
	if err != nil {
		t.Fatal(err)
	}
	armA, err := Map("armA", shared, Serializer[fakeRec](fakeColCodec{}),
		func(r fakeRec) fakeRec { return fakeRec{A: r.A} }, Rebuilds(fakeFieldA))
	if err != nil {
		t.Fatal(err)
	}
	armB, err := Map("armB", shared, Serializer[fakeRec](fakeColCodec{}),
		func(r fakeRec) fakeRec { return fakeRec{B: r.B} }, Rebuilds(fakeFieldB))
	if err != nil {
		t.Fatal(err)
	}
	// Force arm A first: its session sees one of shared's two claims, so
	// shared must widen; arm B forced later still reads correct B values.
	outA, err := Collect("collectA", armA)
	if err != nil {
		t.Fatal(err)
	}
	outB, err := Collect("collectB", armB)
	if err != nil {
		t.Fatal(err)
	}
	for i := range outA {
		if outA[i].A != int32(i) {
			t.Fatalf("armA record %d = %+v", i, outA[i])
		}
	}
	for i := range outB {
		if outB[i].B != int32(1000+i) {
			t.Fatalf("armB record %d = %+v: widening failed, field pruned for a later consumer", i, outB[i])
		}
	}
}

// TestRetainKeepsCacheFullWidth: Retain models a pipeline process publishing
// a dataset for stages declared only later. A narrow action forced first
// must (a) keep its own decode pruning and (b) leave a full-width cache, so
// the late consumer — not even constructed at force time — reads real
// values instead of failing the materialized-mask guard.
func TestRetainKeepsCacheFullWidth(t *testing.T) {
	ctx := NewContext(2)
	base := storeFake(t, ctx, fakeRecs(48), fakeColCodec{})
	pub, err := Map("publish", base, Serializer[fakeRec](fakeColCodec{}),
		func(r fakeRec) fakeRec { return r }, ReadsOnly(0))
	if err != nil {
		t.Fatal(err)
	}
	pub.Retain()

	// Narrow consumer forces first: without the retained claim this session
	// would own pub's only edge and strand its cache at column A.
	ctx.ResetMetrics()
	narrow, err := Map("narrow", pub, Serializer[fakeRec](fakeColCodec{}),
		func(r fakeRec) fakeRec { return fakeRec{A: r.A} }, Rebuilds(fakeFieldA))
	if err != nil {
		t.Fatal(err)
	}
	outA, err := Collect("collectA", narrow)
	if err != nil {
		t.Fatal(err)
	}
	for i := range outA {
		if outA[i].A != int32(i) {
			t.Fatalf("narrow[%d] = %+v", i, outA[i])
		}
	}
	if ctx.Metrics().TotalPrunedBytes() == 0 {
		t.Fatal("the narrow session over a retained dataset should still decode-prune its own read")
	}

	// Late consumer, constructed after the force: full records.
	late, err := Collect("late", pub)
	if err != nil {
		t.Fatalf("late full-width read of a retained dataset: %v", err)
	}
	for i := range late {
		if late[i].A != int32(i) || late[i].B != int32(1000+i) {
			t.Fatalf("late[%d] = %+v: retained cache was stored pruned", i, late[i])
		}
	}
}

// TestUnretainedNarrowForce is the contrast case for Retain. A narrow
// chain materialized too narrow recomputes through its retained lineage
// closure, so a late wider consumer still sees full records. A WIDE op has
// no local recompute (its partitions came through a shuffle), so the same
// shape must fail loudly — the documented materialized-mask guard — rather
// than serve zero fields.
func TestUnretainedNarrowForce(t *testing.T) {
	ctx := NewContext(2)
	base := storeFake(t, ctx, fakeRecs(16), fakeColCodec{})

	// Narrow chain: late wider read recomputes from the cached source.
	chain, err := Map("chain", base, Serializer[fakeRec](fakeColCodec{}),
		func(r fakeRec) fakeRec { return r }, ReadsOnly(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := chain.forceSink(fakeFieldA); err != nil {
		t.Fatal(err)
	}
	late, err := Collect("late-chain", chain)
	if err != nil {
		t.Fatal(err)
	}
	for i := range late {
		if late[i].B != int32(1000+i) {
			t.Fatalf("late[%d] = %+v: wider read of a narrow chain must recompute, not serve zeroes", i, late[i])
		}
	}

	// Wide op: no recompute closure, the guard must fire.
	sh, err := PartitionBy("pb", base, 3, func(r fakeRec) int { return int(r.A) }, ReadsOnly(fakeFieldA))
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.forceSink(fakeFieldA); err != nil {
		t.Fatal(err)
	}
	if _, err := Collect("late-wide", sh); err == nil {
		t.Fatal("wider read of a narrowly materialized shuffle must error, not serve zero fields")
	}
}
