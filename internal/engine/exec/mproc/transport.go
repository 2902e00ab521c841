package mproc

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/gpf-go/gpf/internal/engine"
)

// conn is one peer connection with serialized frame writes. reads happen on
// exactly one goroutine (the read loop), writes from many (tasks and
// allgathers publishing buckets) under wmu.
type conn struct {
	rank int
	c    net.Conn
	wmu  sync.Mutex
}

// writeFrame sends one frame: header and payload go out as one vectored
// write (writev on a TCP connection) under the write mutex, so concurrent
// senders never interleave.
func (c *conn) writeFrame(kind byte, body []byte) error {
	var hdr [frameHeaderLen]byte
	putFrameHeader(&hdr, kind, len(body))
	bufs := net.Buffers{hdr[:]}
	if len(body) > 0 {
		bufs = append(bufs, body)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := bufs.WriteTo(c.c)
	return err
}

// transport is one rank's view of the job's connection mesh plus the
// per-collective exchanges (shuffles, allgathers) bucket frames are routed
// into.
type transport struct {
	rank  int
	procs int
	conns []*conn // indexed by rank; conns[rank] == nil; fixed at construction

	mu        sync.Mutex
	exchanges map[uint64]*wireExchange

	// job is the job's context (engine.Executor.Job): fail cancels it, and
	// the first cause wins.
	job  context.Context
	fail context.CancelCauseFunc

	// driver-side signals (rank 0)
	readyCh chan int
	doneCh  chan engine.Metrics

	wg sync.WaitGroup // read loops; joined by closeAll
}

// newTransport wraps rank's ends of the mesh, indexed by peer rank (nil at
// rank itself).
func newTransport(rank int, conns []net.Conn) *transport {
	procs := len(conns)
	t := &transport{
		rank:      rank,
		procs:     procs,
		conns:     make([]*conn, procs),
		exchanges: make(map[uint64]*wireExchange),
		readyCh:   make(chan int, procs-1),
		doneCh:    make(chan engine.Metrics, procs),
	}
	t.job, t.fail = context.WithCancelCause(context.Background())
	for r, nc := range conns {
		if nc != nil {
			t.conns[r] = &conn{rank: r, c: nc}
		}
	}
	return t
}

// Err is the job's failure cause; nil while the job has not failed.
func (t *transport) Err() error { return context.Cause(t.job) }

// causeGrace is how long a symptom of a lost peer — its process exiting, a
// write to it breaking — waits for the peer's in-band ERR frame, so the
// reported error names the real failure. First cause wins after that.
const causeGrace = 2 * time.Second

// failAfterGrace fails the job with symptom once the lost peer's ERR has had
// causeGrace to arrive first.
func (t *transport) failAfterGrace(symptom error) {
	select {
	case <-t.job.Done():
	case <-time.After(causeGrace):
	}
	t.fail(symptom)
}

// sendTo writes a frame to a peer; a broken pipe fails the job (the peer is
// gone, so its tasks will never complete). A peer that failed its job sends
// ERR and exits, so the write can break while that ERR is still unread.
func (t *transport) sendTo(rank int, kind byte, body []byte) {
	if err := t.conns[rank].writeFrame(kind, body); err != nil {
		t.failAfterGrace(fmt.Errorf("mproc: send to rank %d: %w", rank, err))
	}
}

// broadcastErr pushes the local failure to every live peer so their blocked
// collectives unblock, then fails the local transport. Write errors are
// ignored: the peer may already be gone, and the first cause is what matters.
func (t *transport) broadcastErr(err error) {
	body := encodeErr(errMsg{origin: t.rank, msg: err.Error()})
	for _, c := range t.conns {
		if c != nil {
			// Best effort: the error is already being raised, and a dead
			// peer is expected here.
			_ = c.writeFrame(frameErr, body)
		}
	}
	t.fail(err)
}

// startReadLoops spawns one demux goroutine per peer connection.
func (t *transport) startReadLoops() {
	for _, c := range t.conns {
		if c != nil {
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				t.readLoop(c)
			}()
		}
	}
}

// readLoop demultiplexes incoming frames into the exchange state until the
// peer's terminal frame, after which nothing is read: the EOF that follows a
// clean shutdown is never seen. EOF before a terminal frame is a crashed peer
// and fails the job.
func (t *transport) readLoop(c *conn) {
	for {
		terminal, err := t.readOne(c)
		if err != nil {
			// After a failure the closed socket is a consequence, not a
			// cause, and fail keeps the first cause.
			t.fail(fmt.Errorf("mproc: rank %d connection: %w", c.rank, err))
			return
		}
		if terminal {
			// The peer announced shutdown (DONE/FIN/ERR): nothing further is
			// expected on this connection.
			return
		}
	}
}

// readOne reads and dispatches a single frame, reporting whether it was the
// peer's terminal frame. A non-nil error is a connection-level problem (EOF,
// corrupt frame); protocol frames are handled in place.
func (t *transport) readOne(c *conn) (bool, error) {
	kind, body, err := readFrame(c.c)
	if err != nil {
		return false, err
	}
	switch kind {
	case frameReady:
		select {
		case t.readyCh <- c.rank:
		default:
		}
	case frameBucket:
		m, perr := parseBucket(body)
		if perr == nil && m.r%t.procs != t.rank {
			// A mis-wired mesh, caught here instead of as a reduce that waits
			// forever on the rank that does own the bucket.
			perr = fmt.Errorf("mproc: bucket (%d,%d) reached rank %d, not its owner", m.m, m.r, t.rank)
		}
		if perr != nil {
			return false, perr
		}
		if ex := t.exchangeFor(m.seq, m.in, m.out); ex != nil {
			// The block leaves the frame as its own allocation: a reduce
			// keeps it as partition data, and a window would pin the whole
			// frame payload with it.
			if derr := ex.deliver(m.m, m.r, bytes.Clone(m.block), m.empty); derr != nil {
				return false, derr
			}
		}
	case frameDone:
		var metrics engine.Metrics
		if derr := decodeMetrics(body, &metrics); derr != nil {
			return false, derr
		}
		t.doneCh <- metrics
		return true, nil
	case frameFin:
		return true, nil
	case frameErr:
		m, perr := parseErr(body)
		if perr != nil {
			return false, perr
		}
		t.fail(fmt.Errorf("mproc: rank %d: %s", m.origin, m.msg))
		return true, nil
	default:
		return false, fmt.Errorf("mproc: unexpected frame kind 0x%02x mid-job", kind)
	}
	return false, nil
}

// closeAll closes every connection and joins the read loops. Safe to call
// more than once.
func (t *transport) closeAll() {
	for _, c := range t.conns {
		if c != nil {
			_ = c.c.Close()
		}
	}
	t.wg.Wait()
}

// --- exchange ---

// wireExchange is the cross-process bucket transport of one collective.
// Publishes to reduce slots this rank owns go straight into the local block
// rows (the Sparkle shared-memory fast path); publishes to remote-owned slots
// leave as bucket frames, and arrivals from sibling ranks are delivered by
// the read loop into the same rows — the engine cannot tell the difference.
// Either way a delivery counts down the blocks this rank still expects, and
// the last one closes ready.
type wireExchange struct {
	t       *transport
	seq     uint64
	in, out int
	ready   chan struct{}

	mu      sync.Mutex
	closed  bool
	slots   [][][]byte // slots[r][m], for the reduce slots this rank owns
	seen    []bool     // (m, r) pairs already delivered; duplicates are protocol errors
	pending int        // deliveries still expected to this rank's slots
}

// exchangeFor returns (creating on demand) the exchange state for seq. Both
// the engine (Exchange call) and the read loop (first bucket frame from a
// rank that is ahead) may create it; geometry comes with every bucket frame
// so either side can size the state. A geometry mismatch is a protocol
// violation: it fails the job and returns nil.
func (t *transport) exchangeFor(seq uint64, in, out int) *wireExchange {
	t.mu.Lock()
	ex, ok := t.exchanges[seq]
	if !ok {
		ex = &wireExchange{t: t, seq: seq, in: in, out: out, ready: make(chan struct{}),
			slots: make([][][]byte, out), seen: make([]bool, in*out)}
		for r := t.rank; r < out; r += t.procs {
			ex.slots[r] = make([][]byte, in)
			ex.pending += in
		}
		if ex.pending == 0 { // this rank owns no reduce slot
			close(ex.ready)
		}
		t.exchanges[seq] = ex
	}
	t.mu.Unlock()
	if ex.in != in || ex.out != out {
		t.fail(fmt.Errorf("mproc: exchange %d geometry mismatch: %dx%d vs %dx%d", seq, ex.in, ex.out, in, out))
		return nil
	}
	return ex
}

// deliver stores a bucket for a reduce slot this rank owns and counts it
// down. Each (m, r) is delivered exactly once globally, so a duplicate (a
// misbehaving peer could otherwise close ready early) is rejected as an
// error.
func (ex *wireExchange) deliver(m, r int, block []byte, empty bool) error {
	if empty {
		block = nil
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.closed {
		return nil // late frame after abort; the stage is already over locally
	}
	idx := m*ex.out + r
	if ex.seen[idx] {
		return fmt.Errorf("mproc: exchange %d: duplicate bucket (%d,%d)", ex.seq, m, r)
	}
	ex.seen[idx] = true
	ex.slots[r][m] = block
	if ex.pending--; ex.pending == 0 {
		close(ex.ready)
	}
	return nil
}

// Publish implements engine.Exchange. Remote-owned slots ship the block as a
// bucket frame (nil block = empty marker); locally-owned ones take the
// shared-memory path.
func (ex *wireExchange) Publish(m, r int, block []byte) {
	owner := r % ex.t.procs
	if owner == ex.t.rank {
		if err := ex.deliver(m, r, block, block == nil); err != nil {
			ex.t.fail(err)
		}
		return
	}
	body := encodeBucket(bucketMsg{seq: ex.seq, in: ex.in, out: ex.out, m: m, r: r, empty: block == nil, block: block})
	ex.t.sendTo(owner, frameBucket, body)
}

func (ex *wireExchange) Ready() <-chan struct{} { return ex.ready }

// Take implements engine.Exchange: it hands slot r's blocks over and clears
// the slot, and returns nil after Close.
func (ex *wireExchange) Take(r int) [][]byte {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.closed {
		return nil
	}
	blocks := ex.slots[r]
	ex.slots[r] = nil
	return blocks
}

// Close releases the collective's block rows. The state entry stays
// registered (closed) so frames still in flight after an abort are dropped,
// not resurrected into a fresh exchange.
func (ex *wireExchange) Close() {
	ex.mu.Lock()
	ex.closed = true
	ex.slots = nil
	ex.mu.Unlock()
}
