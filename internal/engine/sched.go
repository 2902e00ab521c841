package engine

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// taskSet is the tasks of one stage and the template of the StageMetrics row
// the runner records for it.
type taskSet struct {
	// row carries Name, Kind and FusedOps; the runner fills Tasks, GCPause,
	// DriverTime and HeapBytes.
	row StageMetrics
	n   int
	// hint orders dispatch largest-first (LPT, stable on ties) to shrink the
	// straggler tail on skewed partitions; nil keeps index order. Results
	// stay indexed by task, so hints never change the output.
	hint func(task int) int64
	fn   func(task int, tm *TaskMetrics) error
	// driver is the stage's serial driver step (allgather, fold), run once
	// the tasks have succeeded and timed into DriverTime less the wait it
	// reports: time blocked on peers in the allgather is not driver work.
	driver func() (wait time.Duration, err error)
}

// stage is one run of the stage runner — the only place the engine launches
// tasks. Its tasks go through one slot semaphore. The first task error or
// panic, or the executor's job-level failure, cancels the stage with that
// error as the cause: no further task starts, tasks blocked in await return,
// and run reports the cause once every started goroutine has joined.
type stage struct {
	c      *Context
	name   string
	ctx    context.Context
	cancel context.CancelCauseFunc
	sem    chan struct{}
}

func (c *Context) newStage(name string) *stage {
	st := &stage{c: c, name: name, sem: make(chan struct{}, c.workers)}
	st.ctx, st.cancel = context.WithCancelCause(context.Background())
	return st
}

// runStage runs one stage.
func (c *Context) runStage(set taskSet) error {
	return c.newStage(set.row.Name).run(set)
}

// lptOrder returns the dispatch order for n tasks: indices by descending
// size hint, stable so equal-sized tasks keep index order. A nil hint yields
// plain index order.
func lptOrder(n int, hint func(task int) int64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if hint == nil {
		return order
	}
	sizes := make([]int64, n)
	for i := range sizes {
		sizes[i] = hint(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] > sizes[order[b]] })
	return order
}

// jobFailed cancels the stage because the executor reported a job-level
// failure (a sibling rank errored or its connection was lost).
func (st *stage) jobFailed() {
	st.cancel(fmt.Errorf("engine: stage %q: %w", st.name, st.c.exec.Err()))
}

// acquire takes a slot; it reports false, holding nothing, once the stage is
// cancelled.
func (st *stage) acquire() bool {
	select {
	case st.sem <- struct{}{}:
	case <-st.ctx.Done():
		return false
	case <-st.c.exec.Failed():
		st.jobFailed()
		return false
	}
	if st.ctx.Err() != nil { // the slot was freed by the task that cancelled
		<-st.sem
		return false
	}
	return true
}

// await receives the next value on ch for a task of this stage, charging
// only the time it blocks to tm.FetchWait. The task keeps its slot while it
// waits: a shuffle's reduce is the only caller, and it starts after every
// local map has published, so it can wait only on a sibling rank's frames. A
// cancelled stage or a failed job ends the wait with the cause.
func (st *stage) await(tm *TaskMetrics, ch <-chan int) (int, error) {
	select {
	case v := <-ch:
		return v, nil
	default:
	}
	w0 := time.Now()
	defer func() { tm.FetchWait += time.Since(w0) }()
	select {
	case v := <-ch:
		return v, nil
	case <-st.ctx.Done():
	case <-st.c.exec.Failed():
		st.jobFailed()
	}
	return 0, context.Cause(st.ctx)
}

// run executes the tasks and records the stage's StageMetrics row. Each
// task's Wall is its elapsed time less FetchWait, so it stays a busy-time
// measure.
func (st *stage) run(set taskSet) error {
	defer st.cancel(nil)
	c := st.c
	procs, rank := c.procs(), c.rank()
	row := &set.row
	row.Tasks = make([]TaskMetrics, set.n)
	for i := range row.Tasks {
		row.Tasks[i].Partition = i
	}
	var wg sync.WaitGroup
	row.GCPause = gcPauseDelta(func() {
		for _, i := range lptOrder(set.n, set.hint) {
			tm := &row.Tasks[i]
			if procs > 1 {
				// Tasks of sibling ranks keep a zero record with Ran false,
				// which Metrics.MergeRanks splices from the rank that ran
				// them.
				if c.ownerOf(i) != rank {
					continue
				}
				tm.Ran, tm.Rank = true, rank
			}
			if !st.acquire() {
				break
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-st.sem }()
				// Cancel before the slot is released above: a dispatcher that
				// wins the slot then sees the cancellation.
				defer func() {
					if p := recover(); p != nil {
						st.cancel(fmt.Errorf("engine: task %d panicked: %v\n%s", i, p, debug.Stack()))
					}
				}()
				t0 := time.Now()
				err := set.fn(i, tm)
				if wall := time.Since(t0) - tm.FetchWait; wall > 0 {
					tm.Wall = wall
				}
				if err != nil {
					st.cancel(err)
				}
			}()
		}
		wg.Wait()
	})
	select {
	case <-c.exec.Failed():
		st.jobFailed()
	default:
	}
	err := context.Cause(st.ctx)
	if set.driver != nil && err == nil {
		t0 := time.Now()
		var wait time.Duration
		wait, err = set.driver()
		row.DriverTime = time.Since(t0) - wait
	}
	row.HeapBytes = readHeapBytes()
	c.recordStage(*row)
	return err
}
