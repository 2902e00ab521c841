package mproc

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/gpf-go/gpf/internal/colfmt"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/testutil/leakcheck"
)

// The conformance suite: every registered conformance job must produce
// byte-identical output on both executor backends (in-process pool,
// multi-process), across task-slot counts (dispatch-order independence) and
// process counts (ownership splits), with the jitter codec randomizing bucket
// arrival where a shuffle is involved.

func init() {
	// conf-shuffle: two chained shuffles plus a fused sort under a jittery
	// codec — determinism under randomized bucket arrival order.
	RegisterJob("conf-shuffle", func(ctx *engine.Context, spec []byte) ([]byte, error) {
		n, inParts, outParts, err := parseTestSpec(spec)
		if err != nil {
			return nil, err
		}
		d := engine.WithCodec(engine.Parallelize(ctx, seqInts(n), inParts), varintCodec{jitter: true})
		s1, err := engine.PartitionBy("c/p1", d, outParts, func(x int) int { return x * 31 })
		if err != nil {
			return nil, err
		}
		s2, err := engine.PartitionBy("c/p2", s1, inParts, func(x int) int { return x >> 3 })
		if err != nil {
			return nil, err
		}
		s3, err := engine.SortPartitions("c/sort", s2, func(a, b int) bool { return a < b })
		if err != nil {
			return nil, err
		}
		items, err := engine.Collect("c/collect", s3)
		if err != nil {
			return nil, err
		}
		return []byte(fmt.Sprint(items)), nil
	})

	// conf-broadcast: a broadcast table must be visible inside tasks on every
	// rank (SPMD: each rank materializes it identically).
	RegisterJob("conf-broadcast", func(ctx *engine.Context, spec []byte) ([]byte, error) {
		n, inParts, outParts, err := parseTestSpec(spec)
		if err != nil {
			return nil, err
		}
		table := make([]int, 64)
		for i := range table {
			table[i] = i*i + 1
		}
		bc := engine.NewBroadcast(ctx, "c/bcast", table, int64(8*len(table)))
		d := engine.Parallelize(ctx, seqInts(n), inParts)
		mapped, err := engine.Map("c/lookup", d, engine.Serializer[int](varintCodec{}), func(x int) int {
			return x + bc.Value[x%len(bc.Value)]
		})
		if err != nil {
			return nil, err
		}
		shuf, err := engine.PartitionBy("c/pb", mapped, outParts, func(x int) int { return x })
		if err != nil {
			return nil, err
		}
		items, err := engine.Collect("c/collect", shuf)
		if err != nil {
			return nil, err
		}
		return []byte(fmt.Sprint(items)), nil
	})

	// conf-combine: the census (CountByKey) over a shuffled dataset, a
	// Reduce and a Collect — the action allgathers whose driver-side folds
	// must stay in lockstep.
	RegisterJob("conf-combine", func(ctx *engine.Context, spec []byte) ([]byte, error) {
		n, inParts, outParts, err := parseTestSpec(spec)
		if err != nil {
			return nil, err
		}
		d := engine.WithCodec(engine.Parallelize(ctx, seqInts(n), inParts), varintCodec{jitter: true})
		shuf, err := engine.PartitionBy("c/pb", d, outParts, func(x int) int { return x * 13 })
		if err != nil {
			return nil, err
		}
		census, err := engine.CountByKey("c/census", shuf, func(x int) int { return x % 23 })
		if err != nil {
			return nil, err
		}
		sum, ok, err := engine.Reduce("c/reduce", d, func(a, b int) int { return a + b })
		if err != nil {
			return nil, err
		}
		items, err := engine.Collect("c/collect", shuf)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "sum=%d ok=%v\n", sum, ok)
		for _, k := range sortedKeys(census) {
			fmt.Fprintf(&buf, "%d=%d\n", k, census[k])
		}
		fmt.Fprintf(&buf, "%v\n", items)
		return buf.Bytes(), nil
	})

	// conf-few: fewer partitions than ranks. At procs = 3 rank 2 owns no
	// partition, runs no task and publishes nothing, yet must resume from
	// every action with every value: each rank checks its results against a
	// sequential fold and fails the job on a mismatch, since only rank 0's
	// output is compared.
	RegisterJob("conf-few", func(ctx *engine.Context, spec []byte) ([]byte, error) {
		n, inParts, _, err := parseTestSpec(spec)
		if err != nil {
			return nil, err
		}
		d := engine.WithCodec(engine.Parallelize(ctx, seqInts(n), inParts), varintCodec{jitter: true})
		items, err := engine.Collect("f/collect", d)
		if err != nil {
			return nil, err
		}
		sum, ok, err := engine.Reduce("f/reduce", d, func(a, b int) int { return a + b })
		if err != nil {
			return nil, err
		}
		count, err := engine.Count("f/count", d)
		if err != nil {
			return nil, err
		}
		census, err := engine.CountByKey("f/census", d, func(x int) int { return x % 7 })
		if err != nil {
			return nil, err
		}
		want := map[int]int{}
		for _, x := range seqInts(n) {
			want[x%7]++
		}
		if !reflect.DeepEqual(items, seqInts(n)) || !ok || sum != n*(n-1)/2 || count != n || !reflect.DeepEqual(census, want) {
			return nil, fmt.Errorf("conf-few: rank %d resumed with %d items, sum %d (ok %v), count %d, census %v",
				ctx.Executor().Rank(), len(items), sum, ok, count, census)
		}
		return []byte(fmt.Sprintf("items=%v sum=%d count=%d census=%v", items, sum, count, census)), nil
	})

	// conf-projection: decode narrowing over the real columnar codec. A
	// shuffle and a filter leave StoreSerialized columnar blocks; a census
	// that declares its key's columns decodes only those, Count decodes
	// headers only, and a later Collect still reads every column. The
	// shuffle's stored bytes, summed over the ranks that hold its
	// partitions, equal the in-process run's: a reduce keeps the buckets it
	// fetched, whether they came as frames or from its own rank. The same
	// dataflow runs again with nothing declared and must produce identical
	// bytes on every backend.
	RegisterJob("conf-projection", func(ctx *engine.Context, spec []byte) ([]byte, error) {
		n, inParts, outParts, err := parseTestSpec(spec)
		if err != nil {
			return nil, err
		}
		run := func(reads ...engine.StageOption) ([]byte, error) {
			ctx.StoreSerialized = true
			d := engine.WithCodec(engine.Parallelize(ctx, confRecords(n), inParts),
				engine.Serializer[sam.Record](colfmt.Codec{}))
			sh, err := engine.PartitionBy("cp/pb", d, outParts,
				func(r sam.Record) int { return int(r.Pos) })
			if err != nil {
				return nil, err
			}
			stored, err := storedBytes(ctx, sh)
			if err != nil {
				return nil, err
			}
			if stored == 0 {
				return nil, fmt.Errorf("conf-projection: the shuffle stored no serialized bytes")
			}
			kept, err := engine.Filter("cp/mapped", sh, func(r sam.Record) bool { return r.Flag&4 == 0 })
			if err != nil {
				return nil, err
			}
			census, err := engine.CountByKey("cp/census", kept,
				func(r sam.Record) int { return int(r.RefID) }, reads...)
			if err != nil {
				return nil, err
			}
			count, err := engine.Count("cp/count", kept)
			if err != nil {
				return nil, err
			}
			items, err := engine.Collect("cp/collect", kept)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			for _, k := range sortedKeys(census) {
				fmt.Fprintf(&buf, "%d=%d\n", k, census[k])
			}
			fmt.Fprintf(&buf, "count=%d stored=%d\n", count, stored)
			for _, r := range items {
				fmt.Fprintf(&buf, "%s:%d:%d:%d:%s\n", r.Name, r.RefID, r.Pos, r.Flag, r.Seq)
			}
			return buf.Bytes(), nil
		}
		declared, err := run(engine.ReadsOnly(colfmt.FieldCoord))
		if err != nil {
			return nil, err
		}
		undeclared, err := run()
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(declared, undeclared) {
			return nil, fmt.Errorf("conf-projection: declared output differs from undeclared")
		}
		return declared, nil
	})
}

// storedBytes sums d.MemoryBytes over the ranks: one task per rank reports
// the bytes of the partitions that rank holds, and Collect gathers them.
func storedBytes(ctx *engine.Context, d *engine.Dataset[sam.Record]) (int64, error) {
	procs := ctx.Executor().Procs()
	shares, err := engine.MapPartitions("cp/stored", engine.Parallelize(ctx, make([]int, procs), procs), nil,
		func(int, []int) ([]int64, error) { return []int64{d.MemoryBytes()}, nil })
	if err != nil {
		return 0, err
	}
	all, err := engine.Collect("cp/stored", shares)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, b := range all {
		n += b
	}
	return n, nil
}

// sortedKeys returns m's keys ascending, so printed census maps are
// byte-deterministic.
func sortedKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// confRecords builds n fully deterministic SAM records with every column
// populated, so partial colfmt blocks have something substantial to prune.
func confRecords(n int) []sam.Record {
	recs := make([]sam.Record, n)
	for i := range recs {
		l := 40 + i%60
		seq := make([]byte, l)
		qual := make([]byte, l)
		for j := range seq {
			seq[j] = "ACGT"[(i+j)%4]
			qual[j] = byte(33 + (i*7+j)%40)
		}
		recs[i] = sam.Record{
			Name:    fmt.Sprintf("r%06d", i),
			Flag:    uint16(i % 256),
			RefID:   int32(i % 3),
			Pos:     int32((i * 37) % 100000),
			MapQ:    uint8(i % 60),
			Cigar:   sam.Cigar{{Len: l, Op: 'M'}},
			MateRef: int32((i + 1) % 3),
			MatePos: int32((i * 53) % 100000),
			TempLen: int32(i%400 - 200),
			Seq:     seq,
			Qual:    qual,
			Tags:    map[string]string{"RG": "conf", "NM": fmt.Sprint(i % 5)},
		}
	}
	return recs
}

var conformanceJobs = []struct {
	name string
	spec []byte
}{
	{"conf-shuffle", []byte("3000,5,4")},
	{"conf-broadcast", []byte("1000,4,3")},
	{"conf-combine", []byte("2000,6,5")},
	{"conf-projection", []byte("1500,4,3")},
	{"conf-few", []byte("50,2,2")},
}

// runOn executes a registered job on a constructed in-process context.
func runOn(t *testing.T, ctx *engine.Context, job string, spec []byte) []byte {
	t.Helper()
	fn, ok := jobFor(job)
	if !ok {
		t.Fatalf("job %q not registered", job)
	}
	out, err := fn(ctx, spec)
	if err != nil {
		t.Fatalf("%s: %v", job, err)
	}
	return out
}

// TestConformanceAcrossBackends: for every conformance job, the in-process
// reference output must be matched byte for byte at several slot counts
// (dispatch order changes with the pool size) and by the multi-process
// backend at several process counts (ownership splits change which rank runs
// what).
func TestConformanceAcrossBackends(t *testing.T) {
	for _, jb := range conformanceJobs {
		t.Run(jb.name, func(t *testing.T) {
			ref := runOn(t, engine.NewContext(4), jb.name, jb.spec)
			if len(ref) == 0 {
				t.Fatal("empty reference output")
			}
			for _, slots := range []int{1, 2, 4} {
				if got := runOn(t, engine.NewContext(slots), jb.name, jb.spec); !bytes.Equal(got, ref) {
					t.Fatalf("inproc slots=%d output differs", slots)
				}
			}
			for _, procs := range []int{1, 2, 3} {
				res, err := Run(jb.name, jb.spec, Options{Procs: procs, Slots: 2})
				if err != nil {
					t.Fatalf("mproc procs=%d: %v", procs, err)
				}
				if !bytes.Equal(res.Output, ref) {
					t.Fatalf("mproc procs=%d output differs:\n%s\nvs\n%s", procs, res.Output, ref)
				}
			}
		})
	}
}

// TestConformanceRepeatedMproc re-runs the jitteriest job several times at
// procs=3: bucket frames arrive in a different interleaving every run, the
// bytes must never change.
func TestConformanceRepeatedMproc(t *testing.T) {
	ref := runOn(t, engine.NewContext(4), "conf-shuffle", []byte("2000,6,5"))
	for trial := 0; trial < 3; trial++ {
		res, err := Run("conf-shuffle", []byte("2000,6,5"), Options{Procs: 3, Slots: 2})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(res.Output, ref) {
			t.Fatalf("trial %d: output drifted", trial)
		}
	}
}

// TestExchangeTakeHandsOver: on both backends an Exchange is Ready only once
// the last bucket for the reduce slots this process owns is in, and Take
// hands a slot's blocks over in map order whatever order they were published
// in. The hand-over clears the slot, so the exchange stops holding the blocks
// as soon as their reader has them: a second Take holds no block, and a slot
// still untaken at Close is gone after it. Over mproc one slot mixes a bucket
// that arrived as a frame from a sibling rank with one published locally;
// reduce slots 1 and 3 are rank 1's.
func TestExchangeTakeHandsOver(t *testing.T) {
	base := leakcheck.Snapshot()
	notReady := func(t *testing.T, ex engine.Exchange) {
		t.Helper()
		select {
		case <-ex.Ready():
			t.Fatal("Ready before the last bucket was published")
		default:
		}
	}
	// take waits for Ready, checks that Take(r) returns want in map order
	// ("" for an empty bucket) and that a second Take holds no block.
	take := func(t *testing.T, ex engine.Exchange, r int, want ...string) {
		t.Helper()
		select {
		case <-ex.Ready():
		case <-time.After(10 * time.Second):
			t.Fatal("not Ready after the last bucket")
		}
		got := ex.Take(r)
		if len(got) != len(want) {
			t.Fatalf("Take(%d) = %q, want %q", r, got, want)
		}
		for m := range want {
			if string(got[m]) != want[m] {
				t.Fatalf("Take(%d) = %q, want %q", r, got, want)
			}
		}
		for _, b := range ex.Take(r) {
			if b != nil {
				t.Fatalf("second Take(%d) holds %q", r, b)
			}
		}
	}
	afterClose := func(t *testing.T, ex engine.Exchange, r int) {
		t.Helper()
		ex.Close()
		if got := ex.Take(r); got != nil {
			t.Fatalf("Take(%d) after Close = %q, want nil", r, got)
		}
	}

	t.Run("inproc", func(t *testing.T) {
		ex := engine.NewContext(1).Executor().Exchange(1, 2, 2)
		ex.Publish(1, 1, []byte("m1"))
		ex.Publish(1, 0, []byte("unread"))
		ex.Publish(0, 0, nil)
		notReady(t, ex)
		ex.Publish(0, 1, []byte("m0"))
		take(t, ex, 1, "m0", "m1")
		afterClose(t, ex, 0)
	})

	t.Run("mproc", func(t *testing.T) {
		drv, wrk := pipePair()
		ex := wrk.exchangeFor(1, 2, 4)
		ex.Publish(1, 1, []byte("local"))
		ex.Publish(0, 3, []byte("unread"))
		ex.Publish(1, 3, nil)
		notReady(t, ex)
		drv.exchangeFor(1, 2, 4).Publish(0, 1, []byte("remote"))
		take(t, ex, 1, "remote", "local")
		afterClose(t, ex, 3)
		finish(drv, wrk)
		for _, tr := range []*transport{drv, wrk} {
			if err := tr.Err(); err != nil {
				t.Fatalf("rank %d: %v", tr.rank, err)
			}
		}
	})
	base.Check(t)
}
