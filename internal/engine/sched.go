package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// taskSet is the tasks of one stage and the template of the StageMetrics row
// the runner records for it.
type taskSet struct {
	// row carries Name, Kind, FusedOps and a shuffle reduce's FetchWait; the
	// runner fills Tasks, GCPause, DriverTime and HeapBytes.
	row StageMetrics
	n   int
	// hint orders dispatch largest-first (LPT, stable on ties) to shrink the
	// straggler tail on skewed partitions; nil keeps index order. Results
	// stay indexed by task, so hints never change the output.
	hint func(task int) int64
	fn   func(task int, tm *TaskMetrics) error
	// driver is the stage's serial driver step (allgather, fold), run once
	// the tasks have succeeded. It reports the time it waited on peers, which
	// the runner records as the row's FetchWait and keeps out of DriverTime.
	driver func() (wait time.Duration, err error)
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

// awaitPeers is the one place a rank waits on its peers: it blocks until
// every reduce slot this rank owns on ex holds all its blocks, or the job
// fails, with the job's cause in stage's name, and returns how long it
// blocked. It runs between task sets or in a driver step, never in a task.
func (c *Context) awaitPeers(stage string, ex Exchange) (time.Duration, error) {
	select {
	case <-ex.Ready():
		return 0, nil
	default:
	}
	t0 := time.Now()
	job := c.exec.Job()
	select {
	case <-ex.Ready():
		return time.Since(t0), nil
	case <-job.Done():
		return time.Since(t0), fmt.Errorf("engine: stage %q: %w", stage, context.Cause(job))
	}
}

// runStage executes the tasks and records the stage's StageMetrics row. It
// is the only place the engine launches tasks, through one slot semaphore.
// The stage's context is the job's child: the first task error or panic, or
// the job's failure, cancels it with that error as the cause, no further
// task starts, and runStage reports the cause once every started goroutine
// has joined. No task waits on another rank: that wait is a driver step
// between task sets (awaitPeers).
func (c *Context) runStage(set taskSet) error {
	job := c.exec.Job()
	ctx, cancel := context.WithCancelCause(job)
	defer cancel(nil)
	sem := make(chan struct{}, c.workers)
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
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
			}
			if ctx.Err() != nil { // cancelled; a slot won here may be the cancelling task's
				break
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				// Cancel before the slot is released above: a dispatcher that
				// wins the slot then sees the cancellation.
				defer func() {
					if p := recover(); p != nil {
						cancel(fmt.Errorf("engine: task %d panicked: %v\n%s", i, p, debug.Stack()))
					}
				}()
				t0 := time.Now()
				err := set.fn(i, tm)
				tm.Wall = time.Since(t0)
				if err != nil {
					cancel(err)
				}
			}()
		}
		wg.Wait()
	})
	err := context.Cause(ctx)
	if err != nil && errors.Is(err, context.Cause(job)) { // the job failed, not a task
		err = fmt.Errorf("engine: stage %q: %w", row.Name, err)
	}
	if set.driver != nil && err == nil {
		t0 := time.Now()
		row.FetchWait, err = set.driver()
		row.DriverTime = time.Since(t0) - row.FetchWait
	}
	row.HeapBytes = readHeapBytes()
	c.recordStage(*row)
	return err
}
