package engine

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// taskSet is one batch of like tasks inside a stage pass and the template of
// the StageMetrics row the runner records for it.
type taskSet struct {
	// row carries Name, Kind and FusedOps; the runner fills Tasks, GCPause
	// (first set of the pass), PipelineOverlap (later sets), DriverTime and
	// HeapBytes.
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

// stage is one pass of the stage runner — the only place the engine launches
// tasks. Every set of the pass goes, in order, through one slot semaphore, so
// a shuffle's reduce tasks start as map tasks free slots and with one slot
// the pass degenerates to maps-then-reduces. The first task error or panic,
// or the executor's job-level failure, cancels the stage with that error as
// the cause: no further task starts, tasks parked in await return, and run
// reports the cause once every started goroutine has joined.
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

// runStage runs a single-set stage.
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

// await receives the next value on ch for a task that holds a slot. When
// nothing is ready the task gives its slot up while it is blocked — a stalled
// reduce must not starve runnable work, so every slot is always held by a
// task making progress — and takes one again before returning; the whole
// detour, re-acquisition included, is charged to tm.FetchWait. A cancelled
// stage ends the wait with the cause.
func (st *stage) await(tm *TaskMetrics, ch <-chan int) (int, error) {
	select {
	case v := <-ch:
		return v, nil
	default:
	}
	w0 := time.Now()
	<-st.sem
	var v int
	select {
	case v = <-ch:
	case <-st.ctx.Done():
	case <-st.c.exec.Failed():
		st.jobFailed()
	}
	st.sem <- struct{}{}
	tm.FetchWait += time.Since(w0)
	return v, context.Cause(st.ctx)
}

// run executes the sets and records one StageMetrics row per set. Each task's
// Wall is its elapsed time less FetchWait, so it stays a busy-time measure.
func (st *stage) run(sets ...taskSet) error {
	defer st.cancel(nil)
	c := st.c
	procs, rank := c.procs(), c.rank()
	// Offsets from begin of each set's first task start and last task end;
	// a later set's PipelineOverlap is how far it reached into its
	// predecessor.
	begin := time.Now()
	first := make([]time.Duration, len(sets))
	last := make([]time.Duration, len(sets))
	for k := range sets {
		first[k] = -1
		sets[k].row.Tasks = make([]TaskMetrics, sets[k].n)
		for i := range sets[k].row.Tasks {
			sets[k].row.Tasks[i].Partition = i
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	gc := gcPauseDelta(func() {
	dispatch:
		for k := range sets {
			set := &sets[k]
			for _, i := range lptOrder(set.n, set.hint) {
				tm := &set.row.Tasks[i]
				if procs > 1 {
					// Tasks of sibling ranks keep a zero record with Ran
					// false, which Metrics.MergeRanks splices from the rank
					// that ran them.
					if c.ownerOf(i) != rank {
						continue
					}
					tm.Ran, tm.Rank = true, rank
				}
				if !st.acquire() {
					break dispatch
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-st.sem }()
					// Cancel before the slot is released above: a dispatcher
					// that wins the slot then sees the cancellation.
					defer func() {
						if p := recover(); p != nil {
							st.cancel(fmt.Errorf("engine: task %d panicked: %v\n%s", i, p, debug.Stack()))
						}
					}()
					t0 := time.Since(begin)
					err := set.fn(i, tm)
					t1 := time.Since(begin)
					if wall := t1 - t0 - tm.FetchWait; wall > 0 {
						tm.Wall = wall
					}
					mu.Lock()
					if first[k] < 0 || t0 < first[k] {
						first[k] = t0
					}
					if t1 > last[k] {
						last[k] = t1
					}
					mu.Unlock()
					if err != nil {
						st.cancel(err)
					}
				}()
			}
		}
		wg.Wait()
	})
	select {
	case <-c.exec.Failed():
		st.jobFailed()
	default:
	}
	err := context.Cause(st.ctx)
	for k := range sets {
		row := &sets[k].row
		if k == 0 {
			row.GCPause = gc
		} else if first[k] >= 0 && last[k-1] > first[k] {
			row.PipelineOverlap = last[k-1] - first[k]
		}
		if sets[k].driver != nil && err == nil {
			t0 := time.Now()
			var wait time.Duration
			wait, err = sets[k].driver()
			row.DriverTime = time.Since(t0) - wait
		}
		row.HeapBytes = readHeapBytes()
		c.recordStage(*row)
	}
	return err
}
