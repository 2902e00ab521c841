package mproc

import (
	"errors"
	"net"
	"reflect"
	"testing"

	"github.com/gpf-go/gpf/internal/testutil/leakcheck"
)

// TestTransportRepeatedSignals reaches each of the transport's four close
// sites a second time: a driver and a worker transport joined by a net.Pipe
// exchange a duplicated GO, a GATHER repeated after the set is complete
// (gatherStore's close under the sent flag), a duplicated GATHERED for a
// gather that is already assembled (complete's close under got == n), and
// two fail calls with different causes. A real job sends each signal once, so
// a guard that let the second one through — a double close, a panic in the
// read loop — would not show in any other test.
func TestTransportRepeatedSignals(t *testing.T) {
	base := leakcheck.Snapshot()
	drv, wrk := newTransport(0, 2), newTransport(1, 2)
	a, b := net.Pipe()
	drv.startReadLoop(drv.register(1, a))
	wrk.startReadLoop(wrk.register(0, b))

	drv.sendTo(1, frameGo, nil)
	drv.sendTo(1, frameGo, nil)
	select {
	case <-wrk.goCh:
	case <-wrk.failedCh:
		t.Fatalf("worker failed before GO: %v", wrk.Err())
	}

	const seq = 7
	want := [][]byte{[]byte("p0"), []byte("p1")}
	gsD, gsW := drv.gatherFor(seq, len(want)), wrk.gatherFor(seq, len(want))
	for _, p := range []int{0, 1, 1} {
		wrk.sendTo(0, frameGather, encodeGather(gatherMsg{seq: seq, n: len(want), p: p, blob: want[p]}))
	}
	for _, gs := range []*gatherState{gsD, gsW} {
		got, err := gs.wait()
		if err != nil {
			t.Fatalf("rank %d gather: %v", gs.t.rank, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rank %d gathered %q, want %q", gs.t.rank, got, want)
		}
	}
	// FIN is a side's last frame: once the read loop it ends has joined,
	// every frame before it has been dispatched. The driver's loop goes
	// first, while the worker still reads, so a wrongly repeated rebroadcast
	// would be delivered (and panic) rather than block the pipe.
	wrk.sendTo(0, frameFin, nil)
	drv.wg.Wait()
	drv.sendTo(1, frameGathered, encodeGathered(gatheredMsg{seq: seq, blobs: want}))
	drv.sendTo(1, frameFin, nil)
	drv.closeAll()
	wrk.closeAll()
	for _, tr := range []*transport{drv, wrk} {
		if err := tr.Err(); err != nil {
			t.Fatalf("rank %d: repeated signals failed the job: %v", tr.rank, err)
		}
	}

	first, second := errors.New("first cause"), errors.New("second cause")
	wrk.fail(first)
	wrk.fail(second)
	if err := wrk.Err(); err != first {
		t.Fatalf("Err() = %v, want the first cause", err)
	}
	base.Check(t)
}
