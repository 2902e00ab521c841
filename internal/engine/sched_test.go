package engine

import (
	"context"
	"errors"
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

// failedExec is an in-process executor whose job has already failed, as a
// sibling rank's error frame would leave it.
type failedExec struct {
	localExec
	failed chan struct{}
}

func (e *failedExec) Failed() <-chan struct{} { return e.failed }
func (e *failedExec) Err() error              { return errors.New("rank 1 died") }

// TestJobFailureCancelsStage: the executor's job-level failure is a stage
// cancellation cause like any task error.
func TestJobFailureCancelsStage(t *testing.T) {
	base := leakcheck.Snapshot()
	ex := &failedExec{localExec: localExec{slots: 2}, failed: make(chan struct{})}
	close(ex.failed)
	err := NewContextOn(ex).runStage(taskSet{
		row: StageMetrics{Name: "doomed"},
		n:   8,
		fn:  func(int, *TaskMetrics) error { return nil },
	})
	if err == nil || !strings.Contains(err.Error(), "rank 1 died") || !strings.Contains(err.Error(), `"doomed"`) {
		t.Fatalf("err = %v, want the job failure wrapped with the stage name", err)
	}
	base.Check(t, leakcheck.Timeout(3*time.Second))
}

// rankBus is the shared memory the fake ranks of one SPMD job meet on: one
// exchange per collective sequence number, so shuffles and action
// allgathers alike cross between ranks through it.
type rankBus struct {
	procs int
	// publishDelay delivers every bucket that long after its Publish
	// returns, standing in for peers still running their tasks: a rank
	// awaiting a sibling's allgather blob blocks for it.
	publishDelay time.Duration
	mu           sync.Mutex
	exchanges    map[uint64]*localExchange
}

// rankExec is one rank of a fake multi-rank job running inside this process:
// the in-process pool reporting the bus's Procs and its own Rank, publishing
// buckets into the exchange all ranks share.
type rankExec struct {
	localExec
	bus  *rankBus
	rank int
}

func (e *rankExec) Procs() int { return e.bus.procs }
func (e *rankExec) Rank() int  { return e.rank }

func (e *rankExec) Exchange(seq uint64, in, out int) Exchange {
	e.bus.mu.Lock()
	defer e.bus.mu.Unlock()
	ex, ok := e.bus.exchanges[seq]
	if !ok {
		ex = newLocalExchange(in, out)
		e.bus.exchanges[seq] = ex
	}
	if e.bus.publishDelay > 0 {
		return lateExchange{ex, e.bus.publishDelay}
	}
	return ex
}

// lateExchange delivers each publish after delay without holding up the
// publisher.
type lateExchange struct {
	*localExchange
	delay time.Duration
}

func (ex lateExchange) Publish(m, r int, block []byte) {
	time.AfterFunc(ex.delay, func() { ex.localExchange.Publish(m, r, block) })
}

// TestOwnershipIsCanonical: partition ownership is the rule p % procs, not
// state. At procs = 3, in a narrow stage, both halves of a shuffle, Collect,
// Reduce and Count, rank r runs exactly the tasks with p % 3 == r; every rank
// resumes from the actions with the same values; and reading a partition a
// sibling holds is the loud non-resident error.
func TestOwnershipIsCanonical(t *testing.T) {
	const procs = 3
	bus := &rankBus{procs: procs, exchanges: map[uint64]*localExchange{}}
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
	var wg sync.WaitGroup
	for rank := range outcomes {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			outcomes[rank] = job(NewContextOn(&rankExec{localExec: localExec{slots: 2}, bus: bus, rank: rank}))
		}(rank)
	}
	wg.Wait()
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
		bus := &rankBus{procs: procs, exchanges: map[uint64]*localExchange{}}
		codec := brokenCodec{failMarshal: failMarshal, marshals: new(atomic.Int32), unmarshals: new(atomic.Int32)}
		errs := make([]error, procs)
		var wg sync.WaitGroup
		for rank := range errs {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				ctx := NewContextOn(&rankExec{localExec: localExec{slots: 2}, bus: bus, rank: rank})
				_, errs[rank] = Collect("collect", WithCodec(Parallelize(ctx, intRange(40), 4), codec))
			}(rank)
		}
		wg.Wait()
		for rank, err := range errs {
			if !errors.Is(err, errBroken) {
				t.Errorf("failMarshal=%v, rank %d: err = %v, want the codec's own error", failMarshal, rank, err)
			}
		}
	}
}

// TestDriverTimeExcludesGatherWait: DriverTime is this rank's serial driver
// work. Time an action's driver step spends blocked on peers' allgather
// blobs is not — the simulator would replay it as driver CPU.
func TestDriverTimeExcludesGatherWait(t *testing.T) {
	const procs, delay = 2, 300 * time.Millisecond
	bus := &rankBus{procs: procs, publishDelay: delay, exchanges: map[uint64]*localExchange{}}
	stages := make([][]StageMetrics, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for rank := 0; rank < procs; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ctx := NewContextOn(&rankExec{localExec: localExec{slots: 2}, bus: bus, rank: rank})
			d := Parallelize(ctx, intRange(40), 4)
			if _, errs[rank] = Collect("collect", d); errs[rank] != nil {
				return
			}
			_, _, errs[rank] = Reduce("reduce", d, func(a, b int) int { return a + b })
			stages[rank] = ctx.Metrics().Stages
		}(rank)
	}
	wg.Wait()
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
		}
	}
}
