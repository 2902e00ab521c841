package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// lineage is the deferred execution plan of a lazy dataset: the maximal chain
// of narrow operations recorded since the last materialized ancestor. Narrow
// ops (Map/Filter/FlatMap/MapPartitions/SortPartitions) do not execute when
// called — each appends itself to its one input's lineage, and compute is the
// fully composed partition closure. Force (a barrier forces a copy) runs the
// plan: one task launch per partition runs the whole chain, every unforced
// ancestor fused in, items flow through the composed closures with no
// intermediate storePartition and no intermediate codec round-trip, and the
// chain is recorded as a single fused StageMetrics row.
//
// The engine counts no consumers. Two lazy chains or barriers reading one
// lazy node each run that node inside their own tasks; a caller that reads a
// node twice forces it first (Spark's persist), and core.Pipeline does so for
// every resource more than one Process reads. The lineage is only the typed
// compute machinery; run-once state lives on the dataset's planMeta. Its
// closures capture the input dataset, so runFused drops the lineage once the
// partitions are stored. The engine never recomputes a forced dataset from
// its lineage (a failed task fails the job; nothing replays).
type lineage[T any] struct {
	nparts int
	// ops returns the names of the ops the fused stage runs, in execution
	// order: the upstream ops still pending, then this node's own. runFused
	// calls it when the stage runs, so an ancestor forced since recording is
	// not named again; the stage is named by joining the names with "+".
	ops func() []string
	// compute evaluates partition p through the whole fused chain. It reads
	// ancestor partitions whole via Dataset.partition, which is what fuses an
	// unforced upstream chain into the caller's task.
	compute func(p int, tm *TaskMetrics) ([]T, error)
	// sizeHint estimates partition p's input size for LPT dispatch by asking
	// the chain's source dataset. Nil means no information (index-order
	// dispatch).
	sizeHint func(p int) int64
}

// isLazy reports whether the dataset still has an unforced plan.
func (d *Dataset[T]) isLazy() bool {
	return d.plan != nil && d.meta != nil && !d.meta.done.Load()
}

// lineageOps returns the pending op names of a lazy dataset (nil otherwise),
// in a slice the caller owns.
func (d *Dataset[T]) lineageOps() []string {
	if d.isLazy() {
		return d.plan.ops()
	}
	return nil
}

// planMeta is the run-once state of a lazy dataset: forcing runs its fused
// chain exactly once, and Force and every later read share the first result
// (a WithCodec copy of the forced dataset shares it too).
type planMeta struct {
	once sync.Once
	err  error
	done atomic.Bool
	// run materializes the node: its fused chain as one stage.
	run func() error
}

// force materializes the node exactly once; later calls return the sticky
// first result. Once it has run the node lets go of its run closure, which
// captures the dataset and, through its plan, the dataset's input.
func (m *planMeta) force() error {
	m.once.Do(func() {
		m.err = m.run()
		m.run = nil
		m.done.Store(true)
	})
	return m.err
}

// newLazyMeta attaches the plan node for a freshly recorded narrow chain
// tail; forcing it runs the fused chain. Nothing forces here, so the chain's
// errors come back from the Force that runs it.
func newLazyMeta[T any](d *Dataset[T]) {
	d.meta = &planMeta{run: func() error { return runFused(d) }}
}

// recordTaskInput charges the fused chain's source partition size to the
// task's InputItems. Only the innermost executed op observes the true chain
// input, and it runs first, so later (outer) closures leave a non-zero value
// alone.
func recordTaskInput(tm *TaskMetrics, n int) {
	if tm != nil && tm.InputItems == 0 {
		tm.InputItems = n
	}
}

// lazyNarrow records a single-input narrow op as a lineage node, composing fn
// over the input's pending chain.
func lazyNarrow[T, U any](name string, d *Dataset[T], codec Serializer[U], fn func(p int, items []T) ([]U, error)) *Dataset[U] {
	res := &Dataset[U]{
		ctx:   d.ctx,
		codec: codec,
		plan: &lineage[U]{
			nparts:   d.NumPartitions(),
			ops:      func() []string { return append(d.lineageOps(), name) },
			sizeHint: d.partitionSizeHint,
			compute: func(p int, tm *TaskMetrics) ([]U, error) {
				in, err := d.partition(p, tm)
				if err != nil {
					return nil, err
				}
				recordTaskInput(tm, len(in))
				out, err := fn(p, in)
				if err != nil {
					return nil, fmt.Errorf("engine: stage %q partition %d: %w", name, p, err)
				}
				return out, nil
			},
		},
	}
	newLazyMeta(res)
	return res
}

// Force materializes a lazy dataset: its fused narrow chain runs as ONE stage
// (one task launch per partition), every unforced ancestor fused in. The
// result is stored in the dataset, so later reads — and downstream lineages
// rooted here — reuse it instead of recomputing, and the dataset lets go of
// its lineage: after a successful Force nothing in the engine refers to its
// input, which is reclaimed once the caller drops it too. Force is the
// engine's persist and the only call that stores rows on a caller's dataset:
// an action or a shuffle forces a copy of a lazy input and drops it, so a
// lazy dataset read by two of them runs inside each unless forced first.
// Forcing a materialized dataset is a no-op; a failed Force is sticky.
// Forcing a nil dataset is an error.
func (d *Dataset[T]) Force() error {
	if d == nil {
		return nilInput("force")
	}
	if d.meta == nil {
		return nil
	}
	return d.meta.force()
}

// runFused executes the dataset's fused plan: one stage, one task per
// partition, each task streaming its partition through the composed closures
// and storing only the final output. The stage is recorded under the names of
// the ops it runs, joined, with FusedOps set to their count. A dataset with
// a codec under Context.StoreSerialized stores one codec block per
// partition, items otherwise: this is the one place the storage level
// applies. Once the partitions are stored the dataset drops its plan: the
// closures are what referenced the input, and nothing reads a plan after
// force.
func runFused[T any](d *Dataset[T]) error {
	pl := d.plan
	n := pl.nparts
	ops := pl.ops()
	d.resident = residentBitmap(d.ctx, n)
	if d.ctx.StoreSerialized && d.codec != nil {
		d.blocks, d.blockCodec = make([][][]byte, n), d.codec
	} else {
		d.parts = make([][]T, n)
	}
	err := d.ctx.runStage(taskSet{
		row:  StageMetrics{Name: strings.Join(ops, "+"), Kind: StageNarrow, FusedOps: len(ops)},
		n:    n,
		hint: pl.sizeHint,
		fn: func(p int, tm *TaskMetrics) error {
			out, err := pl.compute(p, tm)
			if err != nil {
				return err
			}
			tm.OutputItems = len(out)
			return storePartition(d, p, out, tm)
		},
	})
	if err == nil {
		d.plan = nil
	}
	return err
}
