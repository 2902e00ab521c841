package engine

import (
	"context"
	"errors"
	"strings"
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
	return gobSerializer[int]{}.Marshal(items)
}

func (c brokenCodec) Unmarshal([]byte) ([]int, error) {
	c.unmarshals.Add(1)
	return nil, errBroken
}

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
