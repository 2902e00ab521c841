package engine

import (
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/gpf-go/gpf/internal/testutil/reclaim"
)

// probe is an input item whose reclamation a reclaim.Counter reports. It is
// larger than the tiny allocator's 16 bytes.
type probe struct {
	v   int
	pad [4]int64
}

// probes returns n probes and the counter of those the collector reclaimed.
func probes(n int) ([]*probe, *reclaim.Counter) {
	freed := new(reclaim.Counter)
	items := make([]*probe, n)
	for i := range items {
		items[i] = &probe{v: i}
		freed.Track(items[i])
	}
	return items, freed
}

func probeValue(p *probe) int { return p.v }

// TestForcedChainReleasesInput: a forced narrow chain refers to its input
// through nothing — not its lineage closures, not its plan node — so once the
// caller drops the input, the input's items are garbage while the forced
// result is still held and still reads.
func TestForcedChainReleasesInput(t *testing.T) {
	ctx := NewContext(2)
	out, freed := func() (*Dataset[int], *reclaim.Counter) {
		items, freed := probes(64)
		v, err := Map("value", Parallelize(ctx, items, 4), nil, probeValue)
		if err != nil {
			t.Fatal(err)
		}
		even, err := Filter("even", v, func(x int) bool { return x%2 == 0 })
		if err != nil {
			t.Fatal(err)
		}
		if err := even.Force(); err != nil {
			t.Fatal(err)
		}
		return even, freed
	}()
	if !freed.Reclaimed(64) {
		t.Fatalf("forced chain keeps its input reachable: %d of 64 items reclaimed", freed.Freed())
	}
	if n, err := Count("count", out); err != nil || n != 32 {
		t.Fatalf("count = %d, %v; want 32", n, err)
	}
}

// TestSharedPrefixReleasedAfterConsumers: a prefix two consumers were
// recorded over and the caller forced runs once; from then on it no longer
// holds its input. Each consumer's plan still reads the prefix, so the prefix
// stays until both consumers are forced, and then nothing but the caller's
// handles refers to it — no consumer count needed.
func TestSharedPrefixReleasedAfterConsumers(t *testing.T) {
	ctx := NewContext(2)
	prefixRuns, prefixFreed := new(atomic.Int64), new(reclaim.Counter)
	a, b, inFreed := func() (*Dataset[int], *Dataset[int], *reclaim.Counter) {
		items, inFreed := probes(64)
		prefix, err := Map("copy", Parallelize(ctx, items, 4), nil, func(p *probe) *probe {
			prefixRuns.Add(1)
			c := &probe{v: p.v}
			prefixFreed.Track(c)
			return c
		})
		if err != nil {
			t.Fatal(err)
		}
		a, err := Map("a", prefix, nil, probeValue)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Map("b", prefix, nil, func(p *probe) int { return -p.v })
		if err != nil {
			t.Fatal(err)
		}
		if err := prefix.Force(); err != nil {
			t.Fatal(err)
		}
		return a, b, inFreed
	}()
	if !inFreed.Reclaimed(64) {
		t.Fatalf("materialized shared prefix keeps its input reachable: %d of 64 items reclaimed", inFreed.Freed())
	}
	for i, d := range []*Dataset[int]{a, b} {
		runtime.GC()
		runtime.GC()
		if n := prefixFreed.Freed(); n != 0 {
			t.Fatalf("%d prefix items reclaimed while %d consumer(s) still read them", n, 2-i)
		}
		if err := d.Force(); err != nil {
			t.Fatal(err)
		}
	}
	if !prefixFreed.Reclaimed(64) {
		t.Fatalf("forced consumers keep the shared prefix reachable: %d of 64 items reclaimed", prefixFreed.Freed())
	}
	if n := prefixRuns.Load(); n != 64 {
		t.Fatalf("forced prefix ran %d times, want 64 (once per item)", n)
	}
	for _, d := range []*Dataset[int]{a, b} {
		if n, err := Count("count", d); err != nil || n != 64 {
			t.Fatalf("count = %d, %v; want 64", n, err)
		}
	}
}

// TestForcedCodecForkReleasesInput: a WithCodec fork of a lazy chain copies
// the chain's closures; forcing the fork drops them like any other plan, and
// a fork of the forced result shares its storage and nothing else.
func TestForcedCodecForkReleasesInput(t *testing.T) {
	ctx := NewContext(2)
	ctx.StoreSerialized = true
	fork, freed := func() (*Dataset[int], *reclaim.Counter) {
		items, freed := probes(64)
		v, err := Map("value", Parallelize(ctx, items, 4), nil, probeValue)
		if err != nil {
			t.Fatal(err)
		}
		fork := WithCodec(v, Serializer[int](GobCodec[int]{}))
		if err := fork.Force(); err != nil {
			t.Fatal(err)
		}
		return WithCodec(fork, Serializer[int](GobCodec[int]{})), freed
	}()
	if !freed.Reclaimed(64) {
		t.Fatalf("forced codec fork keeps its input reachable: %d of 64 items reclaimed", freed.Freed())
	}
	if got, err := Collect("collect", fork); err != nil || !reflect.DeepEqual(got, intRange(64)) {
		t.Fatalf("collect = %v, %v", got, err)
	}
}

// TestForceKeepsSemantics: dropping the plan at force changes nothing a
// reader sees. Partition count, size hints and contents are what they were
// lazy; a chain recorded on the forced dataset reads its stored partitions
// instead of running the forced op again; a second Force is a no-op; and a
// failed Force stays sticky on every later read.
func TestForceKeepsSemantics(t *testing.T) {
	ctx := NewContext(2)
	in := Parallelize(ctx, intRange(90), 4) // partitions of 23, 23, 23, 21
	var calls atomic.Int64
	inc, err := Map("inc", in, nil, func(x int) int { calls.Add(1); return x + 1 })
	if err != nil {
		t.Fatal(err)
	}
	hints := func(d *Dataset[int]) []int64 {
		h := make([]int64, d.NumPartitions())
		for p := range h {
			h[p] = d.partitionSizeHint(p)
		}
		return h
	}
	lazyHints := hints(inc)
	if err := inc.Force(); err != nil {
		t.Fatal(err)
	}
	if err := inc.Force(); err != nil {
		t.Fatal(err)
	}
	if inc.NumPartitions() != 4 || !reflect.DeepEqual(hints(inc), lazyHints) {
		t.Fatalf("forced: %d partitions, hints %v; lazy hints %v", inc.NumPartitions(), hints(inc), lazyHints)
	}
	want := make([]int, 90)
	for i := range want {
		want[i] = i + 1
	}
	if got, err := Collect("collect", inc); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("collect = %v, %v", got, err)
	}
	ctx.ResetMetrics()
	double, err := Map("double", inc, nil, func(x int) int { return 2 * x })
	if err != nil {
		t.Fatal(err)
	}
	if n, err := Count("count", double); err != nil || n != 90 {
		t.Fatalf("count = %d, %v", n, err)
	}
	if n := calls.Load(); n != 90 {
		t.Fatalf("inc ran %d times, want 90: a chain rooted on a forced dataset re-ran its op", n)
	}
	if name := ctx.Metrics().Stages[0].Name; name != "double" {
		t.Fatalf("downstream stage %q, want \"double\" alone", name)
	}

	errBoom := errors.New("boom")
	bad, err := MapPartitions("fail", in, nil, func(p int, items []int) ([]int, error) {
		if p == 1 {
			return nil, errBoom
		}
		return items, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Force(); !errors.Is(err, errBoom) {
		t.Fatalf("force = %v, want boom", err)
	}
	if bad.NumPartitions() != 4 {
		t.Fatalf("failed dataset reports %d partitions, want 4", bad.NumPartitions())
	}
	after, err := Map("after", bad, nil, func(x int) int { return x })
	if err != nil {
		t.Fatal(err)
	}
	for _, read := range []func() error{
		bad.Force,
		func() error { _, err := Collect("collect-bad", bad); return err },
		func() error { _, err := Collect("collect-after", after); return err },
	} {
		if err := read(); !errors.Is(err, errBoom) {
			t.Fatalf("read after a failed force = %v, want the sticky boom", err)
		}
	}
}

// probeCodec encodes probes by value, so a shuffle of probes decodes fresh
// ones the test does not track.
type probeCodec struct{}

func (probeCodec) Name() string { return "probe" }

func (probeCodec) Marshal(items []*probe) ([]byte, error) {
	vs := make([]int, len(items))
	for i, p := range items {
		vs[i] = p.v
	}
	return GobCodec[int]{}.Marshal(vs)
}

func (probeCodec) Unmarshal(data []byte) ([]*probe, error) {
	vs, err := GobCodec[int]{}.Unmarshal(data)
	items := make([]*probe, len(vs))
	for i, v := range vs {
		items[i] = &probe{v: v}
	}
	return items, err
}

// TestBarrierStoresNothingOnInput: an action or a shuffle reading a lazy
// dataset runs its chain as a fused stage of its own and stores nothing on
// the dataset the caller holds, so the chain's items are garbage once the
// barrier returns, handle or no handle. Only Force stores: after it the items
// survive every barrier, and a second barrier runs no stage for the chain.
func TestBarrierStoresNothingOnInput(t *testing.T) {
	barriers := []struct {
		name string
		run  func(d *Dataset[*probe]) error
	}{
		{"collect", func(d *Dataset[*probe]) error { _, err := Collect("collect", d); return err }},
		{"count", func(d *Dataset[*probe]) error { _, err := Count("count", d); return err }},
		{"census", func(d *Dataset[*probe]) error {
			_, err := CountByKey("census", d, func(p *probe) int { return p.v % 3 })
			return err
		}},
		{"reduce", func(d *Dataset[*probe]) error {
			_, _, err := Reduce("reduce", d, func(a, b *probe) *probe { return &probe{v: a.v + b.v} })
			return err
		}},
		{"shuffle", func(d *Dataset[*probe]) error {
			_, err := PartitionBy("shuffle", d, 3, func(p *probe) int { return p.v })
			return err
		}},
	}
	// allocating records a lazy chain whose items are fresh probes.
	allocating := func(ctx *Context) (*Dataset[*probe], *reclaim.Counter) {
		freed := new(reclaim.Counter)
		d, err := Map("alloc", Parallelize(ctx, intRange(64), 4), Serializer[*probe](probeCodec{}),
			func(v int) *probe {
				p := &probe{v: v}
				freed.Track(p)
				return p
			})
		if err != nil {
			t.Fatal(err)
		}
		return d, freed
	}
	for _, b := range barriers {
		t.Run(b.name, func(t *testing.T) {
			ctx := NewContext(2)
			lazy, freed := allocating(ctx)
			if err := b.run(lazy); err != nil {
				t.Fatal(err)
			}
			if st := ctx.Metrics().Stages[0]; st.Name != "alloc" || st.Kind != StageNarrow {
				t.Fatalf("first stage %q (kind %v), want the chain's own fused stage \"alloc\"", st.Name, st.Kind)
			}
			if !freed.Reclaimed(64) {
				t.Fatalf("%s stored its lazy input: %d of 64 items reclaimed while the handle is held", b.name, freed.Freed())
			}
			runtime.KeepAlive(lazy)

			forced, freed := allocating(ctx)
			if err := forced.Force(); err != nil {
				t.Fatal(err)
			}
			ctx.ResetMetrics()
			for i := 0; i < 2; i++ {
				if err := b.run(forced); err != nil {
					t.Fatal(err)
				}
			}
			for _, st := range ctx.Metrics().Stages {
				if st.Kind == StageNarrow {
					t.Fatalf("a barrier over a forced dataset ran stage %q", st.Name)
				}
			}
			runtime.GC()
			runtime.GC()
			if n := freed.Freed(); n != 0 {
				t.Fatalf("%d forced items reclaimed while the handle is held", n)
			}
			runtime.KeepAlive(forced)
		})
	}
}
