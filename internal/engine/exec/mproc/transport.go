package mproc

import (
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

	failOnce sync.Once
	failedCh chan struct{}
	errMu    sync.Mutex
	err      error

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
		failedCh:  make(chan struct{}),
		readyCh:   make(chan int, procs-1),
		doneCh:    make(chan engine.Metrics, procs),
	}
	for r, nc := range conns {
		if nc != nil {
			t.conns[r] = &conn{rank: r, c: nc}
		}
	}
	return t
}

// fail records the first job-level failure and unblocks everything waiting
// on Failed. Later calls are no-ops (first cause wins).
func (t *transport) fail(err error) {
	t.failOnce.Do(func() {
		t.errMu.Lock()
		t.err = err
		t.errMu.Unlock()
		close(t.failedCh)
	})
}

func (t *transport) Err() error {
	select {
	case <-t.failedCh:
	default:
		return nil
	}
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.err
}

// sendTo writes a frame to a peer; a broken pipe fails the job (the peer is
// gone, so its tasks will never complete). A peer that failed its job sends
// ERR and exits, so the write can break while that ERR is still unread: the
// read loop gets causeGrace to report it as the first cause before the broken
// write is.
func (t *transport) sendTo(rank int, kind byte, body []byte) {
	if err := t.conns[rank].writeFrame(kind, body); err != nil {
		select {
		case <-t.failedCh:
		case <-time.After(causeGrace):
		}
		t.fail(fmt.Errorf("mproc: send to rank %d: %w", rank, err))
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
			select {
			case <-t.failedCh:
				// Already failed (or shutting down): the closed socket is a
				// consequence, not a cause.
				return
			default:
			}
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
			if derr := ex.deliver(m.m, m.r, m.block, m.empty); derr != nil {
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
// Publishes to reduce partitions this rank owns go straight into the local
// block table + notify channel (the Sparkle shared-memory fast path);
// publishes to remote-owned partitions leave as bucket frames, and arrivals
// from sibling ranks are delivered by the read loop into the same local
// structures the in-process path uses — the engine's reduce tasks cannot
// tell the difference.
type wireExchange struct {
	t       *transport
	seq     uint64
	in, out int

	mu     sync.Mutex
	closed bool
	blocks [][]byte
	seen   []bool // (m, r) pairs already delivered; duplicates are protocol errors
	notify []chan int
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
		ex = &wireExchange{t: t, seq: seq, in: in, out: out, blocks: make([][]byte, in*out), seen: make([]bool, in*out), notify: make([]chan int, out)}
		for r := range ex.notify {
			ex.notify[r] = make(chan int, in)
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

// deliver stores an arrived bucket and signals readiness. The notify channel
// is buffered to the map-task count and each (m, r) is delivered exactly
// once globally, so the send never blocks the read loop; a duplicate (a
// misbehaving peer could otherwise overfill the channel and wedge the loop)
// is rejected as an error.
func (ex *wireExchange) deliver(m, r int, block []byte, empty bool) error {
	if empty {
		block = nil
	}
	ex.mu.Lock()
	if ex.closed {
		ex.mu.Unlock()
		return nil // late frame after abort; the stage is already over locally
	}
	idx := m*ex.out + r
	if ex.seen[idx] {
		ex.mu.Unlock()
		return fmt.Errorf("mproc: exchange %d: duplicate bucket (%d,%d)", ex.seq, m, r)
	}
	ex.seen[idx] = true
	ex.blocks[idx] = block
	ch := ex.notify[r]
	ex.mu.Unlock()
	ch <- m
	return nil
}

// Publish implements engine.Exchange. Remote-owned partitions ship the block
// as a bucket frame (nil block = empty marker); locally-owned ones take the
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

func (ex *wireExchange) Notify(r int) <-chan int {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.notify[r]
}

func (ex *wireExchange) Block(m, r int) []byte {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.blocks[m*ex.out+r]
}

// Close releases the stage's block table. The state entry stays registered
// (closed) so frames still in flight after an abort are dropped, not
// resurrected into a fresh exchange.
func (ex *wireExchange) Close() {
	ex.mu.Lock()
	ex.closed = true
	ex.blocks = nil
	ex.mu.Unlock()
}
