package mproc

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"github.com/gpf-go/gpf/internal/engine"
)

// conn is one peer connection with serialized frame writes. reads happen on
// exactly one goroutine (the read loop), writes from many (map tasks
// publishing buckets, gather senders) under wmu.
type conn struct {
	rank int
	c    net.Conn
	wmu  sync.Mutex
	// finished is set when the peer announced clean shutdown (frameFin, or
	// frameDone on the driver side); a subsequent EOF is then expected and
	// must not fail the job.
	finished bool
	fmu      sync.Mutex
}

func (c *conn) markFinished() {
	c.fmu.Lock()
	c.finished = true
	c.fmu.Unlock()
}

func (c *conn) isFinished() bool {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	return c.finished
}

// writeFrame sends one frame; header and payload go out under the write
// mutex so concurrent senders never interleave.
func (c *conn) writeFrame(kind byte, body []byte) error {
	var hdr [frameHeaderLen]byte
	putFrameHeader(&hdr, kind, len(body))
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.c.Write(hdr[:]); err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := c.c.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// transport is one rank's view of the job's connection mesh plus the
// per-collective state (shuffle exchanges, gathers) frames are routed into.
type transport struct {
	rank  int
	procs int

	mu        sync.Mutex
	conns     []*conn // indexed by rank; conns[rank] == nil
	exchanges map[uint64]*wireExchange
	gathers   map[uint64]*gatherState

	failOnce sync.Once
	failedCh chan struct{}
	errMu    sync.Mutex
	err      error

	// driver-side signals (rank 0)
	readyCh chan int
	doneCh  chan rankDone
	// worker-side signal
	goCh chan struct{}

	wg sync.WaitGroup // read loops; joined by Close
}

type rankDone struct {
	rank    int
	metrics engine.Metrics
}

func newTransport(rank, procs int) *transport {
	return &transport{
		rank:      rank,
		procs:     procs,
		conns:     make([]*conn, procs),
		exchanges: make(map[uint64]*wireExchange),
		gathers:   make(map[uint64]*gatherState),
		failedCh:  make(chan struct{}),
		readyCh:   make(chan int, procs),
		doneCh:    make(chan rankDone, procs),
		goCh:      make(chan struct{}),
	}
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

// register installs a peer connection and starts its read loop.
func (t *transport) register(rank int, nc net.Conn) *conn {
	c := &conn{rank: rank, c: nc}
	t.mu.Lock()
	t.conns[rank] = c
	t.mu.Unlock()
	return c
}

func (t *transport) conn(rank int) *conn {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.conns[rank]
}

// sendTo writes a frame to a peer; a broken pipe fails the job (the peer is
// gone, so its tasks will never complete).
func (t *transport) sendTo(rank int, kind byte, body []byte) {
	c := t.conn(rank)
	if c == nil {
		t.fail(fmt.Errorf("mproc: no connection to rank %d", rank))
		return
	}
	if err := c.writeFrame(kind, body); err != nil {
		t.fail(fmt.Errorf("mproc: send to rank %d: %w", rank, err))
	}
}

// broadcastErr pushes the local failure to every live peer so their blocked
// collectives unblock, then fails the local transport. Write errors are
// ignored: the peer may already be gone, and the first cause is what matters.
func (t *transport) broadcastErr(err error) {
	body := encodeErr(errMsg{origin: t.rank, msg: err.Error()})
	t.mu.Lock()
	conns := append([]*conn(nil), t.conns...)
	t.mu.Unlock()
	for _, c := range conns {
		if c != nil {
			//lint:ignore gpflint/codecerr best-effort fan-out of an error that is already being raised; dead peers are expected here
			_ = c.writeFrame(frameErr, body)
		}
	}
	t.fail(err)
}

// startReadLoop spawns the demux goroutine for one peer connection.
func (t *transport) startReadLoop(c *conn) {
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.readLoop(c)
	}()
}

// readLoop demultiplexes incoming frames into the exchange/gather state until
// the connection closes. EOF after the peer announced clean shutdown ends the
// loop silently; EOF before that is a crashed peer and fails the job.
func (t *transport) readLoop(c *conn) {
	for {
		terminal, err := t.readOne(c)
		if err != nil {
			if errors.Is(err, io.EOF) && c.isFinished() {
				return
			}
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
	case frameGo:
		select {
		case <-t.goCh:
		default:
			close(t.goCh)
		}
	case frameBucket:
		m, perr := parseBucket(body)
		if perr != nil {
			return false, perr
		}
		if ex := t.exchangeFor(m.seq, m.in, m.out); ex != nil {
			if derr := ex.deliver(m.m, m.r, m.block, m.empty); derr != nil {
				return false, derr
			}
		}
	case frameGather:
		m, perr := parseGather(body)
		if perr != nil {
			return false, perr
		}
		t.gatherStore(t.gatherFor(m.seq, m.n), m.p, m.blob)
	case frameGathered:
		m, perr := parseGathered(body)
		if perr != nil {
			return false, perr
		}
		t.gatherFor(m.seq, len(m.blobs)).complete(m.blobs)
	case frameDone:
		var metrics engine.Metrics
		if derr := decodeMetrics(body, &metrics); derr != nil {
			return false, derr
		}
		c.markFinished()
		t.doneCh <- rankDone{rank: c.rank, metrics: metrics}
		return true, nil
	case frameFin:
		c.markFinished()
		return true, nil
	case frameErr:
		m, perr := parseErr(body)
		if perr != nil {
			return false, perr
		}
		c.markFinished() // the origin exits after sending; expect EOF
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
	t.mu.Lock()
	conns := append([]*conn(nil), t.conns...)
	t.mu.Unlock()
	for _, c := range conns {
		if c != nil {
			_ = c.c.Close()
		}
	}
	t.wg.Wait()
}

// --- shuffle exchange ---

// wireExchange is the cross-process bucket transport of one shuffle stage.
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

// --- action gather ---

// gatherState accumulates one allgather collective: per-partition blobs flow
// from their owning ranks to the driver, which rebroadcasts the full set.
type gatherState struct {
	t   *transport
	seq uint64

	mu    sync.Mutex
	n     int
	blobs [][]byte
	have  []bool
	got   int
	sent  bool          // driver: full set already rebroadcast
	done  chan struct{} // closed when blobs holds the complete set locally
}

// gatherFor returns (creating on demand) the gather state for seq; n sizes
// it (every creation path knows n: the engine call and both frame kinds
// carry it).
func (t *transport) gatherFor(seq uint64, n int) *gatherState {
	t.mu.Lock()
	defer t.mu.Unlock()
	if gs, ok := t.gathers[seq]; ok {
		return gs
	}
	gs := &gatherState{t: t, seq: seq, n: n, blobs: make([][]byte, n), have: make([]bool, n), done: make(chan struct{})}
	t.gathers[seq] = gs
	return gs
}

// gatherStore records one partition blob on the driver and rebroadcasts the
// completed set once the last one lands (whether it arrived by frame or from
// the driver's own tasks).
func (t *transport) gatherStore(gs *gatherState, p int, blob []byte) {
	gs.mu.Lock()
	if p >= gs.n {
		gs.mu.Unlock()
		t.fail(fmt.Errorf("mproc: gather %d: partition %d outside %d", gs.seq, p, gs.n))
		return
	}
	if !gs.have[p] {
		gs.have[p] = true
		gs.blobs[p] = blob
		gs.got++
	}
	full := gs.got == gs.n && !gs.sent
	if full {
		gs.sent = true
	}
	gs.mu.Unlock()
	if full {
		body := encodeGathered(gatheredMsg{seq: gs.seq, blobs: gs.blobs})
		for rank := 1; rank < t.procs; rank++ {
			t.sendTo(rank, frameGathered, body)
		}
		close(gs.done)
	}
}

// complete installs the driver's rebroadcast set on a worker.
func (gs *gatherState) complete(blobs [][]byte) {
	gs.mu.Lock()
	if len(blobs) == gs.n && gs.got != gs.n {
		copy(gs.blobs, blobs)
		gs.got = gs.n
		gs.mu.Unlock()
		close(gs.done)
		return
	}
	gs.mu.Unlock()
}

// wait blocks until the full set is assembled or the job fails.
func (gs *gatherState) wait() ([][]byte, error) {
	select {
	case <-gs.done:
		return gs.blobs, nil
	case <-gs.t.failedCh:
		return nil, gs.t.Err()
	}
}
