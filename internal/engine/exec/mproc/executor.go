package mproc

import (
	"github.com/gpf-go/gpf/internal/engine"
)

// Exec is the multi-process engine.Executor: one per rank, wrapping that
// rank's transport mesh. The engine cannot tell it from the in-process
// backend — shuffle buckets and gather blobs simply arrive through sockets
// instead of shared memory when their peer lives in a sibling process.
type Exec struct {
	t     *transport
	slots int
}

// Slots is this process's task-slot parallelism.
func (e *Exec) Slots() int { return e.slots }

// Procs is the number of cooperating processes.
func (e *Exec) Procs() int { return e.t.procs }

// Rank is this process's index; rank 0 is the driver.
func (e *Exec) Rank() int { return e.t.rank }

// Failed reports global job failure (remote error, lost worker).
func (e *Exec) Failed() <-chan struct{} { return e.t.failedCh }

// Err reports the failure cause.
func (e *Exec) Err() error { return e.t.Err() }

// Exchange returns the bucket transport for one shuffle stage. The state may
// already exist if a sibling rank raced ahead and its first bucket frame
// arrived before the local engine reached the stage.
func (e *Exec) Exchange(seq uint64, in, out int) engine.Exchange {
	if ex := e.t.exchangeFor(seq, in, out); ex != nil {
		return ex
	}
	// exchangeFor only refuses after failing the job (geometry violation), so
	// Failed is already closed and the stage unwinds through its normal abort
	// path; hand back a stub for the tasks that started before it noticed.
	return failedExchange{}
}

// failedExchange is the Exchange returned once the job has already failed:
// publishes are dropped and Notify never fires.
type failedExchange struct{}

func (failedExchange) Publish(int, int, []byte) {}
func (failedExchange) Notify(int) <-chan int    { return nil }
func (failedExchange) Block(int, int) []byte    { return nil }
func (failedExchange) Close()                   {}

// Gather implements the action allgather: every rank contributes the blobs of
// the partitions it owns, the driver assembles the full set (its own blobs
// directly, the workers' via gather frames) and rebroadcasts it, and every
// rank returns the identical complete slice — which is what keeps the ranks'
// subsequent driver-side folds in lockstep.
func (e *Exec) Gather(seq uint64, n int, owned [][]byte) ([][]byte, error) {
	t := e.t
	if t.procs == 1 || n == 0 {
		return owned, nil
	}
	gs := t.gatherFor(seq, n)
	for p := t.rank; p < n; p += t.procs { // the partitions this rank owns: p % procs == rank
		if t.rank == 0 {
			t.gatherStore(gs, p, owned[p])
		} else {
			t.sendTo(0, frameGather, encodeGather(gatherMsg{seq: seq, n: n, p: p, blob: owned[p]}))
		}
	}
	return gs.wait()
}
