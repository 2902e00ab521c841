package mproc

import (
	"context"

	"github.com/gpf-go/gpf/internal/engine"
)

// Exec is the multi-process engine.Executor: one per rank, wrapping that
// rank's transport mesh. The engine cannot tell it from the in-process
// backend — shuffle buckets and allgather blobs simply arrive through
// sockets instead of shared memory when their peer lives in a sibling
// process.
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

// Job is cancelled by the job's first failure on any rank (an error frame,
// a lost connection or worker), which is its cause.
func (e *Exec) Job() context.Context { return e.t.job }

// Exchange returns the bucket transport for one collective (a shuffle or an
// action's allgather). The state may already exist if a sibling rank raced
// ahead and its first bucket frame arrived before the local engine reached
// the collective.
func (e *Exec) Exchange(seq uint64, in, out int) engine.Exchange {
	if ex := e.t.exchangeFor(seq, in, out); ex != nil {
		return ex
	}
	// exchangeFor only refuses after failing the job (geometry violation), so
	// Job is already cancelled and the stage unwinds through its normal abort
	// path; hand back a stub for the tasks that started before it noticed.
	return failedExchange{}
}

// failedExchange is the Exchange returned once the job has already failed:
// publishes are dropped and it is never Ready.
type failedExchange struct{}

func (failedExchange) Publish(int, int, []byte) {}
func (failedExchange) Ready() <-chan struct{}   { return nil }
func (failedExchange) Take(int) [][]byte        { return nil }
func (failedExchange) Close()                   {}
