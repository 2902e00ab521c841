package engine

// The executor seam abstracts HOW the engine runs a job: how many task slots
// this process owns, how many cooperating processes share the job, which rank
// runs which task, and how blocks travel between tasks: shuffle buckets from
// map to reduce tasks, and action results to every rank (action.go's
// allgather is a shuffle-shaped collective on the same Exchange). Two
// implementations exist:
//
//   - the in-process pool (this file): one process, shared memory, channel
//     sends for bucket readiness — the single-node fast path (the Sparkle
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
	// Failed returns a channel closed when the job has failed globally (a
	// remote rank errored or a worker connection was lost); nil when the
	// backend cannot fail remotely. Err reports the failure cause.
	Failed() <-chan struct{}
	Err() error
}

// Exchange is the bucket transport of one shuffle stage. Publish stores
// bucket (m, r)'s encoded block (nil = empty bucket) and makes m arrive on
// reduce r's Notify channel — for a remote owner of r, as a bucket frame over
// the wire; locally, as a buffered channel send. The store happens-before
// the notification, so Block(m, r) is safe after receiving m.
type Exchange interface {
	Publish(m, r int, block []byte)
	// Notify returns reduce r's readiness channel, carrying map indices in
	// publication order. Only the rank that owns r receives on it.
	Notify(r int) <-chan int
	// Block hands over the stored block for (m, r) and clears its slot, so
	// the exchange holds a block only until its reader fetches it; call only
	// after m arrived on Notify(r). Each (m, r) is read exactly once (by its
	// reduce task, or by the allgather); a second read, or a read after
	// Close, returns nil. nil also means the bucket was empty. The block is
	// the reader's to keep: a shuffle's reduce stores it as partition data,
	// so it must not be a window into a larger buffer.
	Block(m, r int) []byte
	// Close releases the stage's transport state once the local tasks are
	// done with it.
	Close()
}

// localExec is the in-process backend: one process, Slots() task slots.
type localExec struct{ slots int }

func (e *localExec) Slots() int              { return e.slots }
func (e *localExec) Procs() int              { return 1 }
func (e *localExec) Rank() int               { return 0 }
func (e *localExec) Err() error              { return nil }
func (e *localExec) Failed() <-chan struct{} { return nil }

func (e *localExec) Exchange(_ uint64, in, out int) Exchange {
	return newLocalExchange(in, out)
}

// localExchange is the shared-memory bucket transport: a flat block table
// plus one buffered readiness channel per reduce partition.
type localExchange struct {
	in, out int
	blocks  [][]byte // blocks[m*out+r]; the store happens-before the notify send
	notify  []chan int
}

// newLocalExchange builds the in-process Exchange for a shuffle stage with
// the given geometry. Publish never blocks: each notify channel is buffered
// to the map-task count, and every (m, r) pair is published exactly once.
func newLocalExchange(in, out int) *localExchange {
	ex := &localExchange{in: in, out: out, blocks: make([][]byte, in*out), notify: make([]chan int, out)}
	for r := range ex.notify {
		ex.notify[r] = make(chan int, in)
	}
	return ex
}

func (ex *localExchange) Publish(m, r int, block []byte) {
	ex.blocks[m*ex.out+r] = block
	ex.notify[r] <- m // buffered to in: never blocks
}

func (ex *localExchange) Notify(r int) <-chan int { return ex.notify[r] }

func (ex *localExchange) Block(m, r int) []byte {
	i := m*ex.out + r
	block := ex.blocks[i]
	ex.blocks[i] = nil
	return block
}

func (ex *localExchange) Close() {}
