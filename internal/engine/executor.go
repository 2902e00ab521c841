package engine

import (
	"context"
	"sync/atomic"
)

// The executor seam abstracts HOW the engine runs a job: how many task slots
// this process owns, how many cooperating processes share the job, which rank
// runs which task, and how blocks travel between tasks: shuffle buckets from
// map to reduce tasks, and action results to every rank (action.go's
// allgather is a shuffle-shaped collective on the same Exchange). Two
// implementations exist:
//
//   - the in-process pool (this file): one process, shared memory, one
//     countdown for bucket readiness — the single-node fast path (the Sparkle
//     tradeoff: when everything fits one node, shared memory beats sockets);
//   - the multi-process backend (internal/engine/exec/mproc): W cooperating
//     OS processes running the same registered job in SPMD lockstep, moving
//     buckets as length-prefixed frames over a loopback TCP mesh that the
//     driver wires before the workers start and that they inherit as file
//     descriptors, so a rank's first act is its job, not a negotiation.
//
// The SPMD contract every distributed executor relies on: all ranks run the
// same job function deterministically, so they issue the same collective
// operations (shuffles, allgathers) in the same order. The engine numbers
// collectives with Context.nextSeq; matching sequence numbers across ranks is
// what lets bucket frames find their collective without any global
// scheduler. Task ownership is a pure function of the task index (task %
// Procs, Context.ownerOf), so no rank ever asks another what to run.
// A job fails as a whole: its first failure on any rank cancels Job with that
// cause, every stage's context is Job's child, and every wait on a peer ends.

// Executor is the execution backend of a Context.
type Executor interface {
	// Slots is the task-slot parallelism of THIS process (the worker-pool
	// size a Context schedules onto).
	Slots() int
	// Procs is the number of cooperating processes sharing the job; 1 means
	// purely in-process.
	Procs() int
	// Rank is this process's index in [0, Procs); rank 0 is the driver.
	Rank() int
	// Exchange creates the bucket transport for one collective: in map
	// slots, out reduce slots, reduce slot r owned by rank r % Procs. seq is
	// the collective sequence number (identical across ranks for the same
	// collective). It is the only path between ranks.
	Exchange(seq uint64, in, out int) Exchange
	// Job is the job's context: cancelled by the job's first failure (a
	// sibling rank errored or a worker connection was lost), which is its
	// cause. A backend that cannot fail remotely returns a context that is
	// never cancelled.
	Job() context.Context
}

// Exchange is the bucket transport of one collective. Publish stores bucket
// (m, r)'s encoded block (nil = empty bucket) in reduce slot r: for a remote
// owner of r it travels as a bucket frame over the wire, locally it is a
// store. Ready closes once every reduce slot this process owns holds all in
// blocks (at creation when it owns none); every store happens-before that
// close, so Take is safe after receiving from Ready. No task waits on Ready:
// the engine waits on it between task sets (Context.awaitPeers).
type Exchange interface {
	Publish(m, r int, block []byte)
	Ready() <-chan struct{}
	// Take hands over reduce slot r's blocks in map order (nil entries are
	// empty buckets) and clears the slot, so the exchange holds a block only
	// until its reader has it: a second Take, a Take of a slot another rank
	// owns, or a Take after Close returns no block. The blocks are the
	// reader's to keep: a shuffle's reduce stores them as partition data, so
	// none may be a window into a larger buffer.
	Take(r int) [][]byte
	// Close releases the collective's transport state once the local tasks
	// are done with it.
	Close()
}

// localExec is the in-process backend: one process, Slots() task slots.
type localExec struct{ slots int }

func (e *localExec) Slots() int           { return e.slots }
func (e *localExec) Procs() int           { return 1 }
func (e *localExec) Rank() int            { return 0 }
func (e *localExec) Job() context.Context { return context.Background() }

func (e *localExec) Exchange(_ uint64, in, out int) Exchange {
	return newLocalExchange(in, out)
}

// localExchange is the shared-memory bucket transport: one block row per
// reduce slot and a count of the publishes still expected.
type localExchange struct {
	slots   [][][]byte // slots[r][m]
	pending atomic.Int64
	ready   chan struct{}
}

// newLocalExchange builds the in-process Exchange for a collective with the
// given geometry. Every (m, r) pair is published exactly once.
func newLocalExchange(in, out int) *localExchange {
	ex := &localExchange{slots: make([][][]byte, out), ready: make(chan struct{})}
	for r := range ex.slots {
		ex.slots[r] = make([][]byte, in)
	}
	if ex.pending.Store(int64(in * out)); in*out == 0 {
		close(ex.ready)
	}
	return ex
}

func (ex *localExchange) Publish(m, r int, block []byte) {
	ex.slots[r][m] = block
	if ex.pending.Add(-1) == 0 {
		close(ex.ready)
	}
}

func (ex *localExchange) Ready() <-chan struct{} { return ex.ready }

// Take runs after Ready, and each reduce slot has one reader.
func (ex *localExchange) Take(r int) [][]byte {
	if ex.slots == nil { // closed
		return nil
	}
	blocks := ex.slots[r]
	ex.slots[r] = nil
	return blocks
}

func (ex *localExchange) Close() { ex.slots = nil }
