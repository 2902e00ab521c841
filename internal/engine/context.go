// Package engine implements the in-memory dataflow engine underneath GPF —
// the stand-in for Apache Spark in this reproduction. Datasets are split into
// partitions processed by a worker pool.
//
// Execution follows the paper's lazy lineage DAG (§4.3): narrow operations
// (Map, Filter, FlatMap, MapPartitions, SortPartitions) do not run when
// called — each records a lineage node over its one input, and each maximal
// chain of narrow ops is fused into ONE task launch per partition when a
// barrier runs the plan. Barriers are the actions (Collect, Reduce, Count,
// CountByKey), which return values to the driver, and the one wide operation,
// PartitionBy, which runs at the call and returns a materialized dataset.
// A barrier forces a copy of a lazy input; only Force stores rows on it.
// Within a fused stage, items flow through the composed closures with no
// intermediate partition storage and no intermediate codec round-trip; the
// stage is recorded in metrics under the joined op names
// (e.g. "align/bwa-mem+filter") with StageMetrics.FusedOps set to the chain
// length. Calling Force() after each op is the unfused reference the
// equivalence tests compare against.
//
// A dataset is materialized at full width or lazy. A narrow op reads its
// input whole; an op that runs at the call may name the record fields its
// callbacks read (effects.go), and the only thing that narrows is the one
// decode of a columnar block that op itself performs (projection.go).
//
// The wide operation moves data through a push-based hash shuffle (see
// shuffle.go): a map stage publishes every bucket on an Exchange as it is
// encoded, then a reduce stage takes each output partition's buckets.
// Between the two the driver waits for the buckets sibling ranks send: no
// task ever waits on another rank. Its result is the blocks it fetched, kept
// in map-task order, whatever the storage mode: the stage that reads it
// decodes them, as Spark's next stage reads shuffle blocks. Shuffle byte
// volume is charged through a pluggable serializer. Every action is one
// stage that folds per-partition results on the driver (action.go); under
// several processes those results are allgathered over the same Exchange the
// shuffle uses, so one transport path connects ranks. Per-task metrics (wall
// time, shuffle bytes, serialization time) and per-stage ones (fetch wait,
// driver time, GC pauses) feed the cluster simulator and the blocked-time
// analysis of §5.3.
//
// Every task of every stage is launched by the one stage runner in sched.go,
// which owns the slot semaphore, first-error cancellation (the stage's
// context is the job's child, so the job's failure cancels it too), panic
// recovery and the metrics row. A Context carries one switch:
// StoreSerialized, the storage level of what Force stores (the paper's §4.2
// MEMORY_ONLY_SER).
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Serializer turns a batch of records into one byte block and back. It is the
// engine's equivalent of a Spark serializer; the compress package provides
// genomic-aware implementations, and GobCodec is the built-in generic
// fallback (the "Java serialization" tier).
type Serializer[T any] interface {
	Name() string
	Marshal([]T) ([]byte, error)
	Unmarshal([]byte) ([]T, error)
}

// Context owns the worker pool and the metrics of one engine session. The
// zero value is not usable; create one with NewContext.
type Context struct {
	workers int
	exec    Executor

	// seq numbers the collective operations (shuffle exchanges, action
	// allgathers) issued by this context. Under an SPMD executor every rank
	// runs the same deterministic driver program, so equal sequence numbers
	// across ranks identify the same collective — that is how bucket frames
	// find their collective without a global scheduler.
	seq atomic.Uint64

	// StoreSerialized is the storage level of a persist: Force stores a
	// dataset that carries a codec as one codec block per partition — Spark's
	// MEMORY_ONLY_SER, which GPF relies on (§4.2) — and as items when off
	// (the default). Nothing else reads it: a barrier's copy of a lazy input
	// is held as items, and a shuffle's result is the blocks it fetched in
	// either mode.
	StoreSerialized bool

	mu      sync.Mutex
	metrics Metrics
}

// NewContext creates an engine context with the given worker parallelism
// (the local stand-in for cluster cores). workers < 1 selects GOMAXPROCS.
func NewContext(workers int) *Context {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Context{workers: workers, exec: &localExec{slots: workers}}
}

// NewContextOn creates a context running on the given executor backend. The
// task-slot parallelism is the executor's Slots (GOMAXPROCS when it reports
// < 1).
func NewContextOn(exec Executor) *Context {
	workers := exec.Slots()
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Context{workers: workers, exec: exec}
}

// Workers returns the configured task-slot parallelism of this process.
func (c *Context) Workers() int { return c.workers }

// Executor returns the execution backend.
func (c *Context) Executor() Executor { return c.exec }

// procs is the number of cooperating SPMD processes; 1 for in-process runs.
func (c *Context) procs() int { return c.exec.Procs() }

// rank is this process's index in [0, procs).
func (c *Context) rank() int { return c.exec.Rank() }

// ownerOf is the ownership rule: the rank that computes and holds partition p
// of every dataset, and runs task p of every stage. A pure function of the
// index, so no rank ever asks another what to run.
func (c *Context) ownerOf(p int) int { return p % c.procs() }

// nextSeq issues the next collective sequence number. Collectives are driven
// serially by the (deterministic) driver program, so every rank observes the
// same numbering.
func (c *Context) nextSeq() uint64 { return c.seq.Add(1) }

// Metrics returns a snapshot of the accumulated metrics.
func (c *Context) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.metrics.clone()
}

// ResetMetrics clears accumulated metrics (between experiments).
func (c *Context) ResetMetrics() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.metrics = Metrics{}
}

// recordStage appends a finished stage to the metrics.
func (c *Context) recordStage(s StageMetrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s.ID = len(c.metrics.Stages)
	c.metrics.Stages = append(c.metrics.Stages, s)
}
