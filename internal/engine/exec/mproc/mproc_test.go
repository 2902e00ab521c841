package mproc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/testutil/leakcheck"
)

// TestMain hands the process over to workerMain when this test binary is the
// re-exec'd worker (jobs are registered in init, so they exist by now);
// otherwise it runs the tests normally.
func TestMain(m *testing.M) {
	WorkerMaybe()
	os.Exit(m.Run())
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// varintCodec is a compact deterministic int serializer for test datasets.
type varintCodec struct {
	jitter bool // sleep randomly per block: adversarial publish order
}

func (varintCodec) Name() string { return "test-varint" }

func (c varintCodec) Marshal(items []int) ([]byte, error) {
	if c.jitter {
		time.Sleep(time.Duration(rand.Intn(3)) * time.Millisecond)
	}
	var tmp [binary.MaxVarintLen64]byte
	buf := make([]byte, 0, 2+len(items))
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(items)))]...)
	for _, v := range items {
		buf = append(buf, tmp[:binary.PutVarint(tmp[:], int64(v))]...)
	}
	return buf, nil
}

func (varintCodec) Unmarshal(data []byte) ([]int, error) {
	n, read := binary.Uvarint(data)
	if read <= 0 {
		return nil, fmt.Errorf("test-varint: bad count")
	}
	data = data[read:]
	out := make([]int, 0, n)
	for i := uint64(0); i < n; i++ {
		v, r := binary.Varint(data)
		if r <= 0 {
			return nil, fmt.Errorf("test-varint: truncated")
		}
		data = data[r:]
		out = append(out, int(v))
	}
	return out, nil
}

// parseTestSpec decodes the "n,inParts,outParts" spec the test jobs use.
func parseTestSpec(spec []byte) (n, in, out int, err error) {
	parts := strings.Split(string(spec), ",")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("bad spec %q", spec)
	}
	vals := make([]int, 3)
	for i, s := range parts {
		if vals[i], err = strconv.Atoi(s); err != nil {
			return 0, 0, 0, err
		}
	}
	return vals[0], vals[1], vals[2], nil
}

func init() {
	// test-wordcount: shuffle + census + count, with a jittery codec so
	// bucket publish order varies per run. The output bytes must be identical
	// whatever the backend or schedule.
	RegisterJob("test-wordcount", func(ctx *engine.Context, spec []byte) ([]byte, error) {
		n, inParts, outParts, err := parseTestSpec(spec)
		if err != nil {
			return nil, err
		}
		d := engine.WithCodec(engine.Parallelize(ctx, seqInts(n), inParts), varintCodec{jitter: true})
		shuf, err := engine.PartitionBy("t/shuffle", d, outParts, func(x int) int { return x * 7 })
		if err != nil {
			return nil, err
		}
		counts, err := engine.CountByKey("t/census", shuf, func(x int) int { return x % 17 })
		if err != nil {
			return nil, err
		}
		total, err := engine.Count("t/count", shuf)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "total=%d\n", total)
		for _, k := range sortedKeys(counts) {
			fmt.Fprintf(&buf, "%d=%d\n", k, counts[k])
		}
		return buf.Bytes(), nil
	})

	// test-crash: rank 1 kills itself mid-map (while routing an item its own
	// partition holds). Every other rank must unwind with a clean error.
	RegisterJob("test-crash", func(ctx *engine.Context, spec []byte) ([]byte, error) {
		d := engine.Parallelize(ctx, seqInts(200), 4)
		out, err := engine.PartitionBy("t/crash", d, 4, func(x int) int {
			if x == 60 && ctx.Executor().Rank() == 1 {
				os.Exit(3) // simulated hard crash: no ERR frame, just EOF
			}
			return x
		})
		if err != nil {
			return nil, err
		}
		if _, err := engine.Collect("t/collect", out); err != nil {
			return nil, err
		}
		return []byte("ok"), nil
	})

	// test-maperr: a map task fails with a real error on whichever rank owns
	// partition 1. The root cause must reach the driver verbatim.
	RegisterJob("test-maperr", func(ctx *engine.Context, spec []byte) ([]byte, error) {
		d := engine.Parallelize(ctx, seqInts(100), 4)
		mapped, err := engine.MapPartitions("t/boom", d, engine.Serializer[int](varintCodec{}), func(p int, items []int) ([]int, error) {
			if p == 1 {
				return nil, errors.New("injected map failure")
			}
			return items, nil
		})
		if err != nil {
			return nil, err
		}
		if _, err := engine.Collect("t/collect", mapped); err != nil {
			return nil, err
		}
		return []byte("ok"), nil
	})

	// test-fetchwait: a Count lines the ranks up, then the shuffle map of
	// partition 1, which rank 1 owns, sleeps before it routes its first
	// item, so rank 0's reduces wait for rank 1's buckets.
	RegisterJob("test-fetchwait", func(ctx *engine.Context, _ []byte) ([]byte, error) {
		d := engine.Parallelize(ctx, seqInts(200), 4) // partition 1 holds 50..99
		if _, err := engine.Count("t/lineup", d); err != nil {
			return nil, err
		}
		shuf, err := engine.PartitionBy("t/slow", d, 4, func(x int) int {
			if x == 50 {
				time.Sleep(slowMapSleep)
			}
			return x * 7
		})
		if err != nil {
			return nil, err
		}
		items, err := engine.Collect("t/collect", shuf)
		if err != nil {
			return nil, err
		}
		return []byte(fmt.Sprint(items)), nil
	})

	// test-bench: a plain shuffle sized by the spec, for the transport
	// benchmark.
	RegisterJob("test-bench", func(ctx *engine.Context, spec []byte) ([]byte, error) {
		n, inParts, outParts, err := parseTestSpec(spec)
		if err != nil {
			return nil, err
		}
		d := engine.WithCodec(engine.Parallelize(ctx, seqInts(n), inParts), varintCodec{})
		shuf, err := engine.PartitionBy("b/shuffle", d, outParts, func(x int) int { return x*2654435761 ^ x>>7 })
		if err != nil {
			return nil, err
		}
		total, err := engine.Count("b/count", shuf)
		if err != nil {
			return nil, err
		}
		return []byte(strconv.Itoa(total)), nil
	})
}

// TestMprocMatchesInproc is the backend-identity property: the same job run
// in one process and across 2, 3 and 4 processes must return byte-identical
// output (and move the same shuffle volume), despite the jitter codec
// randomizing bucket arrival order. 4 is the first size at which a worker
// inherits more than one worker peer, so the order it adopts fds in matters.
func TestMprocMatchesInproc(t *testing.T) {
	spec := []byte("4000,5,7")
	ref, err := Run("test-wordcount", spec, Options{Procs: 1, Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Output) == 0 {
		t.Fatal("empty reference output")
	}
	for _, procs := range []int{2, 3, 4} {
		got, err := Run("test-wordcount", spec, Options{Procs: procs, Slots: 2})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if !bytes.Equal(got.Output, ref.Output) {
			t.Fatalf("procs=%d: output differs from in-process run:\n%s\nvs\n%s", procs, got.Output, ref.Output)
		}
		if got.Metrics.TotalShuffleBytes() != ref.Metrics.TotalShuffleBytes() {
			t.Fatalf("procs=%d: shuffle bytes %d != in-process %d", procs,
				got.Metrics.TotalShuffleBytes(), ref.Metrics.TotalShuffleBytes())
		}
	}
}

// slowMapSleep is how long test-fetchwait's map of partition 1 sleeps.
const slowMapSleep = 50 * time.Millisecond

// TestMprocFetchWaitIsCrossRankWait: the one wait FetchWait measures is a
// reduce blocked on buckets a sibling rank's map has not sent yet. Rank 1's
// map of partition 1 sleeps, so each of rank 0's reduces (partitions 0 and 2,
// side by side in two slots) waits about that long: the wait is charged to
// FetchWait and kept out of Wall, and the output is the in-process run's.
func TestMprocFetchWaitIsCrossRankWait(t *testing.T) {
	ref, err := Run("test-fetchwait", nil, Options{Procs: 1, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := leakcheck.Snapshot()
	got, err := Run("test-fetchwait", nil, Options{Procs: 2, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	base.Check(t)
	if !bytes.Equal(got.Output, ref.Output) {
		t.Fatalf("output differs from in-process run:\n%s\nvs\n%s", got.Output, ref.Output)
	}
	checked := 0
	for _, st := range got.Metrics.Stages {
		if st.Name != "t/slow/reduce" {
			continue
		}
		for _, task := range st.Tasks {
			if task.Rank != 0 {
				continue
			}
			checked++
			if task.FetchWait < slowMapSleep*3/5 {
				t.Errorf("reduce %d: FetchWait %v, want most of the %v rank 1's map slept", task.Partition, task.FetchWait, slowMapSleep)
			}
			if task.Wall >= task.FetchWait {
				t.Errorf("reduce %d: Wall %v not below FetchWait %v", task.Partition, task.Wall, task.FetchWait)
			}
		}
	}
	if checked != 2 {
		t.Fatalf("%d rank-0 reduce tasks on t/slow, want 2", checked)
	}
}

// TestMprocMergedMetricsCoverEveryTask: after the cross-rank merge, every
// task of every stage carries the record of the rank that ran it — no
// zero-valued placeholder survives.
func TestMprocMergedMetricsCoverEveryTask(t *testing.T) {
	res, err := Run("test-wordcount", []byte("2000,4,6"), Options{Procs: 2, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Metrics.Stages {
		for _, task := range st.Tasks {
			if !task.Ran {
				t.Fatalf("stage %q task %d not covered by any rank after merge", st.Name, task.Partition)
			}
		}
	}
	if res.Metrics.TotalShuffleBytes() == 0 {
		t.Fatal("merged metrics lost shuffle bytes")
	}
}

// TestMprocWorkerCrash kills rank 1 mid-shuffle with no farewell frame: the
// driver must return a clean error naming the lost worker, leak no
// goroutines, and leave the transport reusable for a following run.
func TestMprocWorkerCrash(t *testing.T) {
	base := leakcheck.Snapshot()
	_, err := Run("test-crash", nil, Options{Procs: 2, Slots: 2})
	if err == nil {
		t.Fatal("expected error from crashed worker")
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("error does not name the lost worker: %v", err)
	}
	base.Check(t)

	// The crash must not poison the process: a fresh run on a new mesh (new
	// sockets, new workers) succeeds.
	if _, err := Run("test-wordcount", []byte("500,3,3"), Options{Procs: 2, Slots: 2}); err != nil {
		t.Fatalf("run after crash: %v", err)
	}
}

// TestMprocWorkerCrashThreeProcs: with a third rank blocked in the same
// stage, the crash must unwind it too (ERR/EOF propagation across the mesh),
// not just the driver.
func TestMprocWorkerCrashThreeProcs(t *testing.T) {
	base := leakcheck.Snapshot()
	_, err := Run("test-crash", nil, Options{Procs: 3, Slots: 2})
	if err == nil {
		t.Fatal("expected error from crashed worker")
	}
	base.Check(t)
}

// TestMprocWorkerMapError: a genuine task error on a worker rank travels to
// the driver as the root cause, not as a masked cancellation.
func TestMprocWorkerMapError(t *testing.T) {
	base := leakcheck.Snapshot()
	_, err := Run("test-maperr", nil, Options{Procs: 2, Slots: 2})
	if err == nil {
		t.Fatal("expected injected failure")
	}
	if !strings.Contains(err.Error(), "injected map failure") {
		t.Fatalf("root cause masked: %v", err)
	}
	base.Check(t)
}

// TestWireRejectsStray: a local client already queued on the listener when
// the driver wires the mesh is accepted in place of the driver's own dial, so
// wire must refuse it by address and close every connection it made.
func TestWireRejectsStray(t *testing.T) {
	base := leakcheck.Snapshot()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stray, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stray.Close()
	mesh, err := wire(ln, 3)
	if err == nil {
		t.Fatalf("wire accepted a stray connection: %v", mesh)
	}
	if !strings.Contains(err.Error(), stray.LocalAddr().String()) {
		t.Fatalf("error does not name the stray %s: %v", stray.LocalAddr(), err)
	}
	// wire closed its end of the stray, so the stray reads EOF.
	_ = stray.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, rerr := stray.Read(make([]byte, 1)); rerr != io.EOF {
		t.Fatalf("stray read = %v, want EOF from the closed accepted end", rerr)
	}
	base.Check(t)
}

// TestMprocNoFDLeak: every mesh end the driver wires — its own, and the ones
// it hands to workers — is closed by the time Run returns: after a clean job,
// after one whose reduces waited on a sibling rank, after a worker crash, and when the first worker cannot start, which leaves
// every later worker's ends unstarted.
func TestMprocNoFDLeak(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts /proc/self/fd")
	}
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	// The first Run opens the runtime's poller fds; open them before counting.
	if _, err := Run("test-wordcount", []byte("100,2,2"), Options{Procs: 2, Slots: 1}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, job string
		fails     bool
	}{
		{"clean", "test-wordcount", false},
		{"fetch wait", "test-fetchwait", false},
		{"crash", "test-crash", true},
		{"unstarted", "test-wordcount", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "unstarted" {
				// One environment string past the kernel's 128 KiB limit makes
				// every exec fail with E2BIG.
				t.Setenv("GPF_MPROC_TEST_PAD", strings.Repeat("x", 256<<10))
			}
			before := fds()
			_, err := Run(tc.job, []byte("500,3,3"), Options{Procs: 3, Slots: 2})
			if (err != nil) != tc.fails {
				t.Fatalf("Run error = %v, want failure %v", err, tc.fails)
			}
			if tc.name == "unstarted" && !strings.Contains(err.Error(), "start worker 1") {
				t.Fatalf("error does not name the worker that failed to start: %v", err)
			}
			if after := fds(); after != before {
				t.Fatalf("%d fds open before Run, %d after", before, after)
			}
		})
	}
}

// TestMprocUnknownJob fails fast without forking anything.
func TestMprocUnknownJob(t *testing.T) {
	if _, err := Run("no-such-job", nil, Options{Procs: 2}); err == nil {
		t.Fatal("expected unknown-job error")
	}
}

// BenchmarkShuffleTransport measures one full shuffle job per iteration:
// procs=1 is the shared-memory path, procs>1 pays fork + mesh + wire
// transport, so the delta is the real cost of moving bytes between
// processes.
func BenchmarkShuffleTransport(b *testing.B) {
	spec := []byte("200000,8,8")
	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			var shuffled int64
			for i := 0; i < b.N; i++ {
				res, err := Run("test-bench", spec, Options{Procs: procs, Slots: 2})
				if err != nil {
					b.Fatal(err)
				}
				shuffled = res.Metrics.TotalShuffleBytes()
			}
			b.ReportMetric(float64(shuffled), "shuffle-bytes/op")
		})
	}
}
