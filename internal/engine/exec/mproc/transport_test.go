package mproc

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/gpf-go/gpf/internal/testutil/leakcheck"
)

// writeFailConn is a connection whose writes fail while its reads still
// block, like a socket whose send side broke before the peer's FIN arrived.
type writeFailConn struct{ net.Conn }

func (writeFailConn) Write([]byte) (int, error) { return 0, errors.New("write refused") }

// pipePair joins a driver and a worker transport over a net.Pipe, with both
// read loops running.
func pipePair() (drv, wrk *transport) {
	a, b := net.Pipe()
	drv, wrk = newTransport(0, []net.Conn{nil, a}), newTransport(1, []net.Conn{b, nil})
	drv.startReadLoops()
	wrk.startReadLoops()
	return drv, wrk
}

// finish ends both read loops with FIN, each side's last frame: once the
// loop a FIN ends has joined, every frame sent before it has been
// dispatched. It then closes both transports.
func finish(drv, wrk *transport) {
	drv.sendTo(1, frameFin, nil)
	wrk.wg.Wait()
	wrk.sendTo(0, frameFin, nil)
	drv.closeAll()
	wrk.closeAll()
}

// failure waits for tr to fail the job and returns the cause; a guard that
// let the fault through fails the test instead of hanging it.
func failure(t *testing.T, tr *transport) error {
	t.Helper()
	select {
	case <-tr.job.Done():
		return tr.Err()
	case <-time.After(10 * time.Second):
		t.Fatal("the fault did not fail the job")
		return nil
	}
}

// TestTransportRepeatedSignals reaches each of the transport's two signal
// sites a second time: a worker joined to the driver by a net.Pipe sends
// READY twice, past the one slot the driver's ready channel holds for it, and
// a transport takes two fail calls with different causes. A real job sends
// each signal once, so a guard that let the second one through — a read loop
// wedged on a full channel, a second cause kept — would not show in any other
// test.
func TestTransportRepeatedSignals(t *testing.T) {
	base := leakcheck.Snapshot()
	drv, wrk := pipePair()
	wrk.sendTo(0, frameReady, nil)
	wrk.sendTo(0, frameReady, nil)
	select {
	case <-drv.readyCh:
	case <-drv.job.Done():
		t.Fatalf("driver failed before READY: %v", drv.Err())
	}
	finish(drv, wrk)
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

// blockingConn's Read blocks until release is closed, and its Close does not
// wake it: a read loop parked in it ends only after release.
type blockingConn struct {
	net.Conn
	release chan struct{}
}

func (c blockingConn) Read([]byte) (int, error) {
	<-c.release
	return 0, io.EOF
}

func (blockingConn) Close() error { return nil }

// TestCloseAllJoinsReadLoops: closeAll returns only once every read loop has
// ended, so no read loop outlives the transport.
func TestCloseAllJoinsReadLoops(t *testing.T) {
	base := leakcheck.Snapshot()
	a, b := net.Pipe()
	defer b.Close()
	defer a.Close()
	release := make(chan struct{})
	tr := newTransport(0, []net.Conn{nil, blockingConn{a, release}})
	tr.startReadLoops()
	closed := make(chan struct{})
	go func() {
		tr.closeAll()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("closeAll returned while a read loop was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-closed
	base.Check(t)
}

// TestExchangeIntegrity drives the guards every bucket frame passes through —
// shuffle and allgather alike — over a net.Pipe: a duplicate (m, r) bucket
// fails the job and the error names it; a geometry that contradicts the one a
// known sequence number was created with fails the job; a bucket for a
// reduce partition another rank owns fails the job; and a bucket that
// arrives after Close is dropped, without failing the job or re-creating the
// exchange's state. A worker's DONE frame whose metrics do not decode fails
// the job too, rather than handing the driver zero metrics; so does a send
// that fails while reads still block, and a frame over the length cap fails
// it with the cap as the cause.
func TestExchangeIntegrity(t *testing.T) {
	base := leakcheck.Snapshot()
	bucket := func(seq uint64, in, out, m, r int) []byte {
		return encodeBucket(bucketMsg{seq: seq, in: in, out: out, m: m, r: r, block: []byte{1}})
	}

	t.Run("duplicate bucket", func(t *testing.T) {
		drv, wrk := pipePair()
		defer drv.closeAll()
		defer wrk.closeAll()
		drv.sendTo(1, frameBucket, bucket(3, 2, 2, 0, 1))
		drv.sendTo(1, frameBucket, bucket(3, 2, 2, 0, 1))
		if err := failure(t, wrk); !strings.Contains(err.Error(), "exchange 3: duplicate bucket (0,1)") {
			t.Fatalf("err = %v, want the duplicate bucket named", err)
		}
	})

	t.Run("geometry mismatch", func(t *testing.T) {
		drv, wrk := pipePair()
		defer drv.closeAll()
		defer wrk.closeAll()
		wrk.exchangeFor(4, 2, 2) // the local engine reached collective 4 first
		drv.sendTo(1, frameBucket, bucket(4, 3, 2, 0, 1))
		if err := failure(t, wrk); !strings.Contains(err.Error(), "exchange 4 geometry mismatch") {
			t.Fatalf("err = %v, want the geometry mismatch", err)
		}
	})

	t.Run("bucket for another rank", func(t *testing.T) {
		drv, wrk := pipePair()
		defer drv.closeAll()
		defer wrk.closeAll()
		drv.sendTo(1, frameBucket, bucket(6, 2, 2, 1, 0)) // reduce 0 is rank 0's
		if err := failure(t, wrk); !strings.Contains(err.Error(), "bucket (1,0) reached rank 1, not its owner") {
			t.Fatalf("err = %v, want the misrouted bucket named", err)
		}
	})

	t.Run("bucket after close", func(t *testing.T) {
		drv, wrk := pipePair()
		ex := wrk.exchangeFor(5, 1, 2) // rank 1's one reduce slot expects one bucket
		ex.Close()
		drv.sendTo(1, frameBucket, bucket(5, 1, 2, 0, 1))
		finish(drv, wrk)
		for _, tr := range []*transport{drv, wrk} {
			if err := tr.Err(); err != nil {
				t.Fatalf("rank %d: a late bucket failed the job: %v", tr.rank, err)
			}
		}
		if got := wrk.exchangeFor(5, 1, 2); got != ex {
			t.Fatal("a late bucket re-created the closed exchange")
		}
		select {
		case <-ex.Ready():
			t.Fatal("a late bucket made a closed exchange Ready")
		default:
		}
	})

	t.Run("corrupt DONE metrics", func(t *testing.T) {
		drv, wrk := pipePair()
		defer drv.closeAll()
		defer wrk.closeAll()
		wrk.sendTo(0, frameDone, []byte("not gob"))
		if err := failure(t, drv); !strings.Contains(err.Error(), "decode metrics") {
			t.Fatalf("err = %v, want the metrics decode error", err)
		}
	})

	t.Run("failed send", func(t *testing.T) {
		a, b := net.Pipe()
		drv, wrk := newTransport(0, []net.Conn{nil, writeFailConn{a}}), newTransport(1, []net.Conn{b, nil})
		drv.startReadLoops()
		wrk.startReadLoops()
		defer wrk.closeAll()
		defer drv.closeAll()
		drv.sendTo(1, frameBucket, bucket(7, 2, 2, 0, 1))
		if err := failure(t, drv); !strings.Contains(err.Error(), "send to rank 1: write refused") {
			t.Fatalf("err = %v, want the failed send named", err)
		}
	})

	t.Run("frame over the length cap", func(t *testing.T) {
		a, b := net.Pipe()
		wrk := newTransport(1, []net.Conn{b, nil})
		wrk.startReadLoops()
		defer wrk.closeAll()
		defer a.Close()
		var hdr [frameHeaderLen]byte
		hdr[0] = frameBucket
		binary.LittleEndian.PutUint32(hdr[1:], maxFramePayload+1)
		go a.Write(hdr[:])
		if err := failure(t, wrk); !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("err = %v, want the length cap as the cause", err)
		}
	})
	base.Check(t)
}
