package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gpf-go/gpf/internal/testutil/leakcheck"
)

// brokenCodec counts its calls and fails every one of them on the chosen
// side: Marshal when failMarshal is set, Unmarshal otherwise.
type brokenCodec struct {
	failMarshal          bool
	marshals, unmarshals *atomic.Int32
}

var errBroken = errors.New("broken codec")

func (brokenCodec) Name() string { return "broken" }

func (c brokenCodec) Marshal(items []int) ([]byte, error) {
	c.marshals.Add(1)
	if c.failMarshal {
		return nil, errBroken
	}
	return GobCodec[int]{}.Marshal(items)
}

func (c brokenCodec) Unmarshal(b []byte) ([]int, error) {
	c.unmarshals.Add(1)
	if c.failMarshal {
		return GobCodec[int]{}.Unmarshal(b)
	}
	return nil, errBroken
}

// gobRefused is a value gob refuses to encode.
type gobRefused struct{}

func (gobRefused) GobEncode() ([]byte, error) { return nil, errBroken }

// TestFirstErrorAborts: with one slot and eight partitions, a failure in the
// first task must stop the stage — the failing callback is the only one
// invoked, and the stage returns that task's own error, never a
// cancellation — on every path that launches tasks.
func TestFirstErrorAborts(t *testing.T) {
	wantErr := errors.New("task 0 failed")
	var calls atomic.Int32
	failFirst := func(p int) error {
		calls.Add(1)
		if p == 0 {
			return wantErr
		}
		return nil
	}
	cases := []struct {
		name string
		want error
		run  func(ctx *Context) (invoked int32, err error)
	}{
		{"runner", wantErr, func(ctx *Context) (int32, error) {
			err := ctx.runStage(taskSet{n: 8, fn: func(p int, _ *TaskMetrics) error { return failFirst(p) }})
			return calls.Load(), err
		}},
		{"fused narrow stage", wantErr, func(ctx *Context) (int32, error) {
			d, err := MapPartitions("fail", Parallelize(ctx, intRange(80), 8), nil,
				func(p int, items []int) ([]int, error) { return items, failFirst(p) })
			if err != nil {
				return 0, err
			}
			err = d.Force()
			return calls.Load(), err
		}},
		{"action over an erroring codec", errBroken, func(ctx *Context) (int32, error) {
			ctx.StoreSerialized = true
			codec := brokenCodec{marshals: new(atomic.Int32), unmarshals: new(atomic.Int32)}
			d, err := Map("store", Parallelize(ctx, intRange(80), 8), Serializer[int](codec), func(x int) int { return x })
			if err != nil {
				return 0, err
			}
			if err := d.Force(); err != nil {
				return 0, err
			}
			_, err = Collect("collect", d)
			return codec.unmarshals.Load(), err
		}},
		{"stored partition over a failing encoder", errBroken, func(ctx *Context) (int32, error) {
			ctx.StoreSerialized = true
			codec := brokenCodec{failMarshal: true, marshals: new(atomic.Int32), unmarshals: new(atomic.Int32)}
			d, err := Map("store", Parallelize(ctx, intRange(80), 8), Serializer[int](codec), func(x int) int { return x })
			if err != nil {
				return 0, err
			}
			err = d.Force()
			return codec.marshals.Load(), err
		}},
		{"stored partition gob refuses", errBroken, func(ctx *Context) (int32, error) {
			ctx.StoreSerialized = true
			d, err := MapPartitions("gob", Parallelize(ctx, intRange(80), 8), GobCodec[gobRefused]{},
				func(p int, items []int) ([]gobRefused, error) {
					calls.Add(1)
					return make([]gobRefused, len(items)), nil
				})
			if err != nil {
				return 0, err
			}
			err = d.Force()
			return calls.Load(), err
		}},
		{"PartitionBy map task", errBroken, func(ctx *Context) (int32, error) {
			codec := brokenCodec{failMarshal: true, marshals: new(atomic.Int32), unmarshals: new(atomic.Int32)}
			_, err := PartitionBy("boom", WithCodec(Parallelize(ctx, intRange(80), 8), codec), 4, func(x int) int { return x })
			if n := codec.unmarshals.Load(); n != 0 {
				t.Errorf("%d buckets decoded: a reduce task started after the map failure", n)
			}
			return codec.marshals.Load(), err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := leakcheck.Snapshot()
			calls.Store(0)
			invoked, err := tc.run(NewContext(1))
			if !errors.Is(err, tc.want) || errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want the failing task's own %v", err, tc.want)
			}
			if invoked != 1 {
				t.Fatalf("failing callback invoked %d times, want exactly 1", invoked)
			}
			base.Check(t, leakcheck.Timeout(3*time.Second))
		})
	}
}

// TestPanicCarriesStack: a recovered task panic names the panic value and
// where it happened.
func TestPanicCarriesStack(t *testing.T) {
	err := NewContext(2).runStage(taskSet{n: 4, fn: func(p int, _ *TaskMetrics) error {
		if p == 1 {
			panic("kaboom")
		}
		return nil
	}})
	if err == nil {
		t.Fatal("panic not converted to an error")
	}
	for _, want := range []string{"task 1 panicked", "kaboom", "goroutine ", "sched_test.go:"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error lacks %q:\n%v", want, err)
		}
	}
}

// jobExec is an in-process executor whose job context the test cancels, as a
// sibling rank's error frame would.
type jobExec struct {
	localExec
	job context.Context
}

func (e *jobExec) Job() context.Context { return e.job }

var errRankDied = errors.New("rank 1 died")

// TestJobFailureCancelsStage: the job's failure is a stage cancellation
// cause like any task error, whether the job failed before the stage started
// or while its first task ran; in the second case no later task starts.
func TestJobFailureCancelsStage(t *testing.T) {
	t.Run("before", func(t *testing.T) {
		base := leakcheck.Snapshot()
		job, fail := context.WithCancelCause(context.Background())
		fail(errRankDied)
		err := NewContextOn(&jobExec{localExec: localExec{slots: 2}, job: job}).runStage(taskSet{
			row: StageMetrics{Name: "doomed"},
			n:   8,
			fn:  func(int, *TaskMetrics) error { return nil },
		})
		if !errors.Is(err, errRankDied) || !strings.Contains(err.Error(), `"doomed"`) {
			t.Fatalf("err = %v, want the job failure wrapped with the stage name", err)
		}
		base.Check(t, leakcheck.Timeout(3*time.Second))
	})

	t.Run("mid-stage", func(t *testing.T) {
		base := leakcheck.Snapshot()
		job, fail := context.WithCancelCause(context.Background())
		var started atomic.Int32
		err := NewContextOn(&jobExec{localExec: localExec{slots: 1}, job: job}).runStage(taskSet{
			row: StageMetrics{Name: "doomed"},
			n:   8,
			fn: func(p int, _ *TaskMetrics) error {
				started.Add(1)
				if p == 0 {
					fail(errRankDied)
				}
				return nil
			},
		})
		if !errors.Is(err, errRankDied) || !strings.Contains(err.Error(), `"doomed"`) {
			t.Fatalf("err = %v, want the job failure wrapped with the stage name", err)
		}
		if n := started.Load(); n != 1 {
			t.Fatalf("%d tasks started, want only task 0", n)
		}
		base.Check(t, leakcheck.Timeout(3*time.Second))
	})
}

// TestJobFailureNamesAwaitedStage: a job that fails while a rank waits on
// its peers (an action's allgather, a shuffle's wait for its reduce
// buckets) ends the wait with the job's cause and the name of the stage the
// wait is for. The fake rank 0 of a 2-rank job waits on an exchange that is
// never Ready; the job fails 50 ms in.
func TestJobFailureNamesAwaitedStage(t *testing.T) {
	cases := []struct {
		stage string
		run   func(ctx *Context) error
	}{
		{"my-count", func(ctx *Context) error {
			_, err := Count("my-count", Parallelize(ctx, intRange(8), 4))
			return err
		}},
		{"my-shuffle/reduce", func(ctx *Context) error {
			_, err := PartitionBy("my-shuffle", Parallelize(ctx, intRange(8), 4), 4, func(x int) int { return x })
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.stage, func(t *testing.T) {
			base := leakcheck.Snapshot()
			job, fail := context.WithCancelCause(context.Background())
			timer := time.AfterFunc(50*time.Millisecond, func() { fail(errRankDied) })
			defer timer.Stop()
			err := tc.run(NewContextOn(&neverReadyExec{jobExec{localExec: localExec{slots: 2}, job: job}}))
			if !errors.Is(err, errRankDied) || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.stage)) {
				t.Fatalf("err = %v, want the job failure wrapped with stage %q", err, tc.stage)
			}
			base.Check(t, leakcheck.Timeout(3*time.Second))
		})
	}
}

// neverReadyExec is rank 0 of a 2-rank job whose sibling never delivers: its
// exchanges drop every publish and are never Ready.
type neverReadyExec struct{ jobExec }

func (*neverReadyExec) Procs() int { return 2 }

func (*neverReadyExec) Exchange(uint64, int, int) Exchange { return neverReady{} }

type neverReady struct{}

func (neverReady) Publish(int, int, []byte) {}
func (neverReady) Ready() <-chan struct{}   { return nil }
func (neverReady) Take(int) [][]byte        { return nil }
func (neverReady) Close()                   {}

// rankBus is the shared memory the fake ranks of one SPMD job meet on: one
// collective per sequence number, so shuffles and action allgathers alike
// cross between ranks through it.
type rankBus struct {
	procs int
	// publishDelay delivers every bucket that long after its Publish
	// returns, standing in for peers still running their tasks: a rank
	// waiting for a sibling's buckets or allgather blobs blocks for them.
	publishDelay time.Duration
	mu           sync.Mutex
	collectives  map[uint64]*busCollective
}

// busCollective is one collective's block rows, shared by every rank, and
// the count of blocks each rank's reduce slots still expect.
type busCollective struct {
	mu      sync.Mutex
	slots   [][][]byte // slots[r][m]
	pending []int      // by rank
	ready   []chan struct{}
}

// rankExec is one rank of a fake multi-rank job running inside this process:
// the in-process pool reporting the bus's Procs and its own Rank, publishing
// buckets into the collective all ranks share.
type rankExec struct {
	localExec
	bus  *rankBus
	rank int
}

func (e *rankExec) Procs() int { return e.bus.procs }
func (e *rankExec) Rank() int  { return e.rank }

func (e *rankExec) Exchange(seq uint64, in, out int) Exchange {
	bus := e.bus
	bus.mu.Lock()
	defer bus.mu.Unlock()
	if bus.collectives == nil {
		bus.collectives = map[uint64]*busCollective{}
	}
	c, ok := bus.collectives[seq]
	if !ok {
		c = &busCollective{slots: make([][][]byte, out), pending: make([]int, bus.procs), ready: make([]chan struct{}, bus.procs)}
		for r := range c.slots {
			c.slots[r] = make([][]byte, in)
			c.pending[r%bus.procs] += in
		}
		for rank := range c.ready {
			if c.ready[rank] = make(chan struct{}); c.pending[rank] == 0 {
				close(c.ready[rank])
			}
		}
		bus.collectives[seq] = c
	}
	return busExchange{c: c, rank: e.rank, procs: bus.procs, delay: bus.publishDelay}
}

// busExchange is one rank's Exchange on a busCollective. Each publish is
// delivered after delay without holding up the publisher.
type busExchange struct {
	c           *busCollective
	rank, procs int
	delay       time.Duration
}

func (ex busExchange) Publish(m, r int, block []byte) {
	deliver := func() {
		ex.c.mu.Lock()
		defer ex.c.mu.Unlock()
		ex.c.slots[r][m] = block
		owner := r % ex.procs
		if ex.c.pending[owner]--; ex.c.pending[owner] == 0 {
			close(ex.c.ready[owner])
		}
	}
	if ex.delay > 0 {
		time.AfterFunc(ex.delay, deliver)
	} else {
		deliver()
	}
}

func (ex busExchange) Ready() <-chan struct{} { return ex.c.ready[ex.rank] }

func (ex busExchange) Take(r int) [][]byte {
	ex.c.mu.Lock()
	defer ex.c.mu.Unlock()
	blocks := ex.c.slots[r]
	ex.c.slots[r] = nil
	return blocks
}

func (busExchange) Close() {}

// runRanks runs job once per rank of a procs-rank job on a fresh bus, each
// rank on its own goroutine with two slots, and returns once all are done.
func runRanks(procs int, delay time.Duration, job func(ctx *Context, rank int)) {
	bus := &rankBus{procs: procs, publishDelay: delay}
	var wg sync.WaitGroup
	for rank := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job(NewContextOn(&rankExec{localExec: localExec{slots: 2}, bus: bus, rank: rank}), rank)
		}()
	}
	wg.Wait()
}

// TestOwnershipIsCanonical: partition ownership is the rule p % procs, not
// state. At procs = 3, in a narrow stage, both halves of a shuffle, Collect,
// Reduce and Count, rank r runs exactly the tasks with p % 3 == r; every rank
// resumes from the actions with the same values; and reading a partition a
// sibling holds is the loud non-resident error.
func TestOwnershipIsCanonical(t *testing.T) {
	const procs = 3
	type outcome struct {
		collected  []int
		sum, count int
		sibling    error
		err        error
		stages     []StageMetrics
	}
	job := func(ctx *Context) (o outcome) {
		d, _ := Map("narrow", Parallelize(ctx, intRange(70), 7), nil, func(x int) int { return x + 1 })
		if o.err = d.Force(); o.err != nil {
			return o
		}
		_, o.sibling = d.partition((ctx.rank()+1)%procs, nil)
		sh, err := PartitionBy("shuffle", d, 5, func(x int) int { return x })
		if o.err = err; err != nil {
			return o
		}
		if o.collected, o.err = Collect("collect", sh); o.err != nil {
			return o
		}
		if o.sum, _, o.err = Reduce("reduce", sh, func(a, b int) int { return a + b }); o.err != nil {
			return o
		}
		o.count, o.err = Count("count", sh)
		o.stages = ctx.Metrics().Stages
		return o
	}
	outcomes := make([]outcome, procs)
	runRanks(procs, 0, func(ctx *Context, rank int) { outcomes[rank] = job(ctx) })
	for rank, o := range outcomes {
		if o.err != nil {
			t.Fatalf("rank %d: %v", rank, o.err)
		}
		if o.sibling == nil || !strings.Contains(o.sibling.Error(), "not resident") {
			t.Errorf("rank %d read a sibling's partition: err = %v, want the non-resident error", rank, o.sibling)
		}
		if !reflect.DeepEqual(o.collected, outcomes[0].collected) || o.sum != 70*71/2 || o.count != 70 {
			t.Errorf("rank %d resumed with %d items, sum %d, count %d", rank, len(o.collected), o.sum, o.count)
		}
		if len(o.stages) != 6 { // narrow, shuffle/map, shuffle/reduce, collect, reduce, count
			t.Fatalf("rank %d recorded %d stages, want 6", rank, len(o.stages))
		}
		for _, st := range o.stages {
			for p, tk := range st.Tasks {
				if tk.Ran != (p%procs == rank) {
					t.Errorf("rank %d, stage %q, task %d: ran = %v", rank, st.Name, p, tk.Ran)
				}
			}
		}
	}
}

// TestAllgatherCodecErrors: at procs = 2 on the fake bus, an action whose
// codec fails to encode a partition's result, or to decode a sibling's blob,
// fails on every rank with the codec's own error, not with a short or empty
// result.
func TestAllgatherCodecErrors(t *testing.T) {
	const procs = 2
	for _, failMarshal := range []bool{true, false} {
		codec := brokenCodec{failMarshal: failMarshal, marshals: new(atomic.Int32), unmarshals: new(atomic.Int32)}
		errs := make([]error, procs)
		runRanks(procs, 0, func(ctx *Context, rank int) {
			_, errs[rank] = Collect("collect", WithCodec(Parallelize(ctx, intRange(40), 4), codec))
		})
		for rank, err := range errs {
			if !errors.Is(err, errBroken) {
				t.Errorf("failMarshal=%v, rank %d: err = %v, want the codec's own error", failMarshal, rank, err)
			}
		}
	}
}

// TestDriverTimeExcludesGatherWait: DriverTime is this rank's serial driver
// work. Time an action's driver step spends blocked on peers' allgather
// blobs is not — the simulator would replay it as driver CPU — and the
// action's row carries it as FetchWait instead.
func TestDriverTimeExcludesGatherWait(t *testing.T) {
	const procs, delay = 2, 300 * time.Millisecond
	stages := make([][]StageMetrics, procs)
	errs := make([]error, procs)
	runRanks(procs, delay, func(ctx *Context, rank int) {
		d := Parallelize(ctx, intRange(40), 4)
		if _, errs[rank] = Collect("collect", d); errs[rank] != nil {
			return
		}
		_, _, errs[rank] = Reduce("reduce", d, func(a, b int) int { return a + b })
		stages[rank] = ctx.Metrics().Stages
	})
	for rank := range stages {
		if errs[rank] != nil {
			t.Fatalf("rank %d: %v", rank, errs[rank])
		}
		if len(stages[rank]) != 2 {
			t.Fatalf("rank %d recorded %d stages, want collect and reduce", rank, len(stages[rank]))
		}
		for _, st := range stages[rank] {
			if st.DriverTime < 0 || st.DriverTime > delay/3 {
				t.Errorf("rank %d, stage %q: DriverTime = %v with peers' blobs %v late", rank, st.Name, st.DriverTime, delay)
			}
			if st.FetchWait < delay/2 {
				t.Errorf("rank %d, stage %q: FetchWait = %v with peers' blobs %v late", rank, st.Name, st.FetchWait, delay)
			}
		}
	}
}

// TestRankWithoutReduceSlot: a shuffle to fewer partitions than ranks leaves
// some ranks owning no reduce slot. Nothing is published to them, so their
// wait for the buckets must end at once, and every rank resumes from the
// Collect after it with every item.
func TestRankWithoutReduceSlot(t *testing.T) {
	for _, procs := range []int{2, 3} {
		got := make([][]int, procs)
		errs := make([]error, procs)
		runRanks(procs, 0, func(ctx *Context, rank int) {
			sh, err := PartitionBy("one", Parallelize(ctx, intRange(30), 6), 1, func(x int) int { return x })
			if errs[rank] = err; err != nil {
				return
			}
			got[rank], errs[rank] = Collect("collect", sh)
		})
		for rank := range got {
			if errs[rank] != nil {
				t.Fatalf("procs=%d, rank %d: %v", procs, rank, errs[rank])
			}
			if !reflect.DeepEqual(got[rank], intRange(30)) {
				t.Errorf("procs=%d, rank %d collected %v", procs, rank, got[rank])
			}
		}
	}
}
