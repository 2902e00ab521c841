package engine

import (
	"fmt"
	"strings"
)

// lineage is the deferred execution plan of a lazy dataset: the maximal chain
// of narrow operations recorded since the last materialized ancestor. Narrow
// ops (Map/Filter/FlatMap/MapPartitions/SortPartitions) do not execute when
// called — each appends itself to its one input's lineage, and compute is the
// fully composed partition closure. A barrier (action, shuffle) forces
// the plan (planner.go): ancestors shared by several consumers materialize
// first, then one task launch per partition runs the whole chain, items flow
// through the composed closures with no intermediate storePartition and no
// intermediate codec round-trip, and the chain is recorded as a single fused
// StageMetrics row.
//
// Run-once state (children, once, err) lives on the dataset's planMeta — the
// type-erased node Force walks — not here; the lineage itself is only the
// typed compute machinery. Its closures capture the input dataset, so
// runFused drops the lineage once the partitions are stored. The engine
// never recomputes a forced dataset from its lineage (a failed task fails
// the job; nothing replays).
type lineage[T any] struct {
	nparts int
	// ops returns the names of the ops the fused stage runs, in execution
	// order: the upstream ops still pending, then this node's own. runFused
	// calls it after forceShared, so an ancestor materialized on its own is not
	// claimed again; the stage is named by joining the names with "+".
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

// newLazyMeta attaches the plan node for a freshly recorded narrow chain
// tail — forcing it runs the fused chain — and records it as one more
// consumer of its input. Nothing forces here: a shared prefix materializes
// when its first consumer is forced (planMeta.forceShared), so its errors
// propagate from that Force instead of being dropped on the floor now.
func newLazyMeta[T any](d *Dataset[T], input *planMeta) {
	input.claim()
	d.meta = &planMeta{input: input, run: func() error { return runFused(d) }}
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
	newLazyMeta(res, d.meta)
	return res
}

// Force materializes a lazy dataset: ancestors recorded under more than one
// consumer are forced first, producers first, each as its own stage; then
// this dataset's fused narrow chain runs as ONE stage (one task launch per
// partition), single-consumer ancestors fused in. The result is stored in the
// dataset, so later reads — and downstream lineages rooted here — reuse it
// instead of recomputing, and the dataset lets go of its lineage: after a
// successful Force nothing in the engine refers to its input, which is
// reclaimed once the caller drops it too. Actions and wide operations call
// Force implicitly; it is exported for callers that want an explicit
// execution barrier (e.g. before timing a downstream stage). Forcing a
// materialized dataset is a no-op; a failed Force is sticky.
func (d *Dataset[T]) Force() error {
	if d.meta == nil {
		return nil
	}
	return d.meta.force()
}

// runFused executes the dataset's fused plan: one stage, one task per
// partition, each task streaming its partition through the composed closures
// and storing only the final output. The stage is recorded under the names of
// the ops it runs, joined, with FusedOps set to their count. Once the
// partitions are stored the dataset drops its plan: the closures are what
// referenced the input, and nothing reads a plan after force.
func runFused[T any](d *Dataset[T]) error {
	pl := d.plan
	n := pl.nparts
	ops := pl.ops()
	allocResult(d, n)
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
