package mproc

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"github.com/gpf-go/gpf/internal/engine"
)

// JobFunc is a registered SPMD job: every rank calls it with its own Context
// and the identical spec bytes, and must derive identical control flow from
// them (same datasets, same stage order) — the collective sequence numbers
// depend on it. The returned bytes are the job's output; only rank 0's
// (the driver's) is reported, the workers compute theirs purely to stay in
// lockstep.
type JobFunc func(ctx *engine.Context, spec []byte) ([]byte, error)

var (
	regMu sync.Mutex
	jobs  = map[string]JobFunc{}
)

// RegisterJob registers fn under name. Call from init (or otherwise before
// WorkerMaybe): the re-exec'd worker binary must know the job before the
// driver asks it to run. Duplicate names panic.
func RegisterJob(name string, fn JobFunc) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := jobs[name]; dup {
		panic("mproc: duplicate job " + name)
	}
	jobs[name] = fn
}

func jobFor(name string) (JobFunc, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	fn, ok := jobs[name]
	return fn, ok
}

// Worker environment: when these are set the process is a re-exec'd worker
// and WorkerMaybe takes over instead of running the normal main.
const (
	envWorker = "GPF_MPROC_WORKER"
	envRank   = "GPF_MPROC_RANK"
	envDriver = "GPF_MPROC_DRIVER"
)

// handshakeTimeout bounds every step of mesh establishment (dial, hello, job,
// peer, ready). The job itself runs without a deadline; crashes surface as
// EOF or a non-zero exit instead.
const handshakeTimeout = 30 * time.Second

// causeGrace is how long a symptom of a lost peer — its process exiting, a
// write to it breaking — waits for the peer's in-band ERR frame, so the
// reported error names the real failure. First cause wins after that.
const causeGrace = 2 * time.Second

// Options configures a Run.
type Options struct {
	// Procs is the process count W (driver + W-1 workers); <1 means 1.
	Procs int
	// Slots is each process's task-slot parallelism; 0 selects GOMAXPROCS
	// independently in every process.
	Slots int
}

// Result is a completed job.
type Result struct {
	Output []byte
	// Metrics is the cross-rank merge: every task's record comes from the
	// rank that ran it (engine.Metrics.MergeRanks).
	Metrics engine.Metrics
	Wall    time.Duration
}

func encodeMetrics(m engine.Metrics) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, fmt.Errorf("mproc: encode metrics: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeMetrics(b []byte, m *engine.Metrics) error {
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(m); err != nil {
		return fmt.Errorf("mproc: decode metrics: %w", err)
	}
	return nil
}

// writeFrameTo writes one frame on a not-yet-registered connection (the
// handshake path, before a conn wrapper exists).
func writeFrameTo(nc net.Conn, kind byte, body []byte) error {
	c := conn{c: nc}
	return c.writeFrame(kind, body)
}

// Run executes the registered job name with the given spec. Procs <= 1 runs
// purely in-process; otherwise the current binary is re-exec'd W-1 times, the
// full TCP mesh is established, and all ranks run the job in SPMD lockstep.
// Run returns rank 0's output and the cross-rank merged metrics; any rank's
// failure (error return, crash, lost connection) fails the whole job with the
// first cause.
func Run(name string, spec []byte, opts Options) (*Result, error) {
	fn, ok := jobFor(name)
	if !ok {
		return nil, fmt.Errorf("mproc: job %q not registered", name)
	}
	procs := opts.Procs
	if procs < 1 {
		procs = 1
	}
	start := time.Now()
	if procs == 1 {
		// Single process: no sockets, no re-exec — the plain in-process pool.
		ctx := engine.NewContext(opts.Slots)
		out, err := fn(ctx, spec)
		if err != nil {
			return nil, err
		}
		return &Result{Output: out, Metrics: ctx.Metrics(), Wall: time.Since(start)}, nil
	}

	// Workers are this executable re-exec'd (see WorkerMaybe).
	bin, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("mproc: resolve worker binary: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("mproc: listen: %w", err)
	}
	// Join the HELLO accept loop on every exit path: closing the listener
	// unblocks a parked Accept, so the loop cannot outlive Run.
	var accept sync.WaitGroup
	defer func() {
		_ = ln.Close()
		accept.Wait()
	}()

	t := newTransport(0, procs)
	cmds := make([]*exec.Cmd, procs)
	var reap sync.WaitGroup
	kill := func() {
		for _, cmd := range cmds {
			if cmd != nil && cmd.Process != nil {
				_ = cmd.Process.Kill()
			}
		}
	}
	// teardown is the failure-path cleanup: push the cause to live workers so
	// their blocked collectives unwind, kill and reap the children, close the
	// sockets and join the read loops — no goroutine and no fd outlives Run.
	teardown := func(cause error) error {
		t.broadcastErr(cause)
		kill()
		reap.Wait()
		t.closeAll()
		return t.Err()
	}

	for rank := 1; rank < procs; rank++ {
		cmd := exec.Command(bin)
		cmd.Env = append(os.Environ(),
			envWorker+"=1",
			envRank+"="+strconv.Itoa(rank),
			envDriver+"="+ln.Addr().String(),
		)
		cmd.Stdout = os.Stderr // a worker's prints must not corrupt driver stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, teardown(fmt.Errorf("mproc: start worker %d: %w", rank, err))
		}
		cmds[rank] = cmd
		reap.Add(1)
		go func(rank int, cmd *exec.Cmd) {
			defer reap.Done()
			if werr := cmd.Wait(); werr != nil {
				// A worker that fails its job sends an ERR frame and then
				// exits non-zero.
				select {
				case <-t.failedCh:
				case <-time.After(causeGrace):
				}
				t.fail(fmt.Errorf("mproc: worker rank %d exited: %w", rank, werr))
			}
		}(rank, cmd)
	}

	// Accept one HELLO per worker (any order); each carries the worker's own
	// peer listen address for the mesh.
	type hello struct {
		rank int
		addr string
		c    net.Conn
		err  error
	}
	helloCh := make(chan hello, procs)
	accept.Add(1)
	go func() {
		defer accept.Done()
		for i := 1; i < procs; i++ {
			nc, aerr := ln.Accept()
			if aerr != nil {
				helloCh <- hello{err: fmt.Errorf("mproc: accept: %w", aerr)}
				return
			}
			//lint:ignore gpflint/goleak handshake read is deadline-bounded (handshakeTimeout), so a stalled peer errors the goroutine out; its hello send lands in a procs-capacity buffer
			go func(nc net.Conn) {
				_ = nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
				kind, body, rerr := readFrame(nc)
				if rerr != nil || kind != frameHello {
					_ = nc.Close()
					helloCh <- hello{err: fmt.Errorf("mproc: expected hello, got kind 0x%02x: %v", kind, rerr)}
					return
				}
				m, perr := parseHello(body)
				if perr != nil {
					_ = nc.Close()
					helloCh <- hello{err: perr}
					return
				}
				_ = nc.SetReadDeadline(time.Time{})
				helloCh <- hello{rank: m.rank, addr: m.addr, c: nc}
			}(nc)
		}
	}()
	addrs := make([]string, procs)
	for got := 0; got < procs-1; got++ {
		select {
		case h := <-helloCh:
			if h.err != nil {
				return nil, teardown(h.err)
			}
			if h.rank < 1 || h.rank >= procs || t.conn(h.rank) != nil {
				_ = h.c.Close()
				return nil, teardown(fmt.Errorf("mproc: bad hello rank %d", h.rank))
			}
			addrs[h.rank] = h.addr
			t.register(h.rank, h.c)
		case <-t.failedCh:
			return nil, teardown(t.Err())
		case <-time.After(handshakeTimeout):
			return nil, teardown(fmt.Errorf("mproc: handshake timeout waiting for workers"))
		}
	}

	// Ship the job (name, geometry, peer addresses, spec), start demuxing, and
	// release the barrier once every worker reports its mesh is up.
	jobBody := encodeJob(jobMsg{name: name, procs: procs, slots: opts.Slots, addrs: addrs, spec: spec})
	for rank := 1; rank < procs; rank++ {
		t.sendTo(rank, frameJob, jobBody)
		t.startReadLoop(t.conn(rank))
	}
	for ready := 0; ready < procs-1; ready++ {
		select {
		case <-t.readyCh:
		case <-t.failedCh:
			return nil, teardown(t.Err())
		case <-time.After(handshakeTimeout):
			return nil, teardown(fmt.Errorf("mproc: handshake timeout waiting for ready"))
		}
	}
	for rank := 1; rank < procs; rank++ {
		t.sendTo(rank, frameGo, nil)
	}

	ctx := engine.NewContextOn(&Exec{t: t, slots: opts.Slots})
	out, err := fn(ctx, spec)
	if err != nil {
		if terr := teardown(err); terr != nil {
			err = terr // the first global cause, not the local symptom
		}
		return nil, err
	}

	// Local success is not global success: collect every worker's DONE (with
	// its metrics), watching for late crashes.
	workerMetrics := make([]engine.Metrics, 0, procs-1)
	for len(workerMetrics) < procs-1 {
		select {
		case d := <-t.doneCh:
			workerMetrics = append(workerMetrics, d.metrics)
		case <-t.failedCh:
			return nil, teardown(t.Err())
		}
	}
	if ferr := t.Err(); ferr != nil {
		return nil, teardown(ferr)
	}
	// Clean shutdown: FIN tells each worker nothing more is coming; workers
	// exit 0 once all their read loops saw a terminal frame.
	for rank := 1; rank < procs; rank++ {
		t.sendTo(rank, frameFin, nil)
	}
	reap.Wait()
	t.closeAll()
	if ferr := t.Err(); ferr != nil {
		return nil, ferr
	}
	return &Result{
		Output:  out,
		Metrics: ctx.Metrics().MergeRanks(workerMetrics...),
		Wall:    time.Since(start),
	}, nil
}

// WorkerMaybe hijacks the process as an mproc worker when the worker
// environment is present, and never returns in that case. Any binary that
// calls Run with Procs > 1 must call WorkerMaybe first thing in main (or
// TestMain), after its jobs are registered — workers are that same binary
// re-exec'd.
func WorkerMaybe() {
	if os.Getenv(envWorker) == "" {
		return
	}
	workerMain()
}

func fatalWorker(err error) {
	fmt.Fprintln(os.Stderr, "mproc worker:", err)
	os.Exit(1)
}

// workerMain is the worker process body: establish the mesh, run the job in
// lockstep, report DONE (or ERR) and exit.
func workerMain() {
	rank, err := strconv.Atoi(os.Getenv(envRank))
	if err != nil || rank < 1 {
		fatalWorker(fmt.Errorf("bad %s=%q", envRank, os.Getenv(envRank)))
	}
	driverAddr := os.Getenv(envDriver)
	if driverAddr == "" {
		fatalWorker(fmt.Errorf("missing %s", envDriver))
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalWorker(fmt.Errorf("peer listen: %w", err))
	}
	dc, err := net.DialTimeout("tcp", driverAddr, handshakeTimeout)
	if err != nil {
		fatalWorker(fmt.Errorf("dial driver: %w", err))
	}
	if err := writeFrameTo(dc, frameHello, encodeHello(helloMsg{rank: rank, addr: ln.Addr().String()})); err != nil {
		fatalWorker(fmt.Errorf("hello: %w", err))
	}
	_ = dc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	kind, body, err := readFrame(dc)
	if err != nil || kind != frameJob {
		fatalWorker(fmt.Errorf("expected job frame, got kind 0x%02x: %v", kind, err))
	}
	job, err := parseJob(body)
	if err != nil {
		fatalWorker(err)
	}
	_ = dc.SetReadDeadline(time.Time{})
	if rank >= job.procs || len(job.addrs) != job.procs {
		fatalWorker(fmt.Errorf("rank %d outside job geometry %d", rank, job.procs))
	}
	fn, ok := jobFor(job.name)
	if !ok {
		fatalWorker(fmt.Errorf("job %q not registered in worker binary (register before WorkerMaybe)", job.name))
	}

	t := newTransport(rank, job.procs)
	t.register(0, dc)
	// Mesh: dial every lower-ranked worker, accept every higher-ranked one
	// (j dials i for i < j, so each pair gets exactly one connection).
	for i := 1; i < rank; i++ {
		pc, derr := net.DialTimeout("tcp", job.addrs[i], handshakeTimeout)
		if derr != nil {
			fatalWorker(fmt.Errorf("dial peer %d: %w", i, derr))
		}
		if werr := writeFrameTo(pc, framePeer, encodePeer(rank)); werr != nil {
			fatalWorker(fmt.Errorf("peer hello to %d: %w", i, werr))
		}
		t.register(i, pc)
	}
	if tl, ok := ln.(*net.TCPListener); ok {
		_ = tl.SetDeadline(time.Now().Add(handshakeTimeout))
	}
	for i := rank + 1; i < job.procs; i++ {
		nc, aerr := ln.Accept()
		if aerr != nil {
			fatalWorker(fmt.Errorf("accept peer: %w", aerr))
		}
		_ = nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
		kind, body, rerr := readFrame(nc)
		if rerr != nil || kind != framePeer {
			fatalWorker(fmt.Errorf("expected peer frame, got kind 0x%02x: %v", kind, rerr))
		}
		prank, perr := parsePeer(body)
		if perr != nil {
			fatalWorker(perr)
		}
		if prank <= rank || prank >= job.procs || t.conn(prank) != nil {
			fatalWorker(fmt.Errorf("bad peer rank %d", prank))
		}
		_ = nc.SetReadDeadline(time.Time{})
		t.register(prank, nc)
	}
	_ = ln.Close()
	for r := 0; r < job.procs; r++ {
		if c := t.conn(r); c != nil {
			t.startReadLoop(c)
		}
	}
	t.sendTo(0, frameReady, nil)
	select {
	case <-t.goCh:
	case <-t.failedCh:
		fatalWorker(t.Err())
	}

	ctx := engine.NewContextOn(&Exec{t: t, slots: job.slots})
	// The worker's output is discarded — it computes the job purely to hold
	// up its end of the collectives; rank 0's output is the job's output.
	if _, jerr := fn(ctx, job.spec); jerr != nil {
		t.broadcastErr(jerr)
		os.Exit(1)
	}
	if t.Err() != nil {
		os.Exit(1) // a sibling failed; the cause already reached the driver
	}
	mb, merr := encodeMetrics(ctx.Metrics())
	if merr != nil {
		t.broadcastErr(merr)
		os.Exit(1)
	}
	t.sendTo(0, frameDone, mb)
	for r := 1; r < job.procs; r++ {
		if r != rank {
			t.sendTo(r, frameFin, nil)
		}
	}
	// Every peer sends its own terminal frame (driver: FIN after all DONEs;
	// workers: FIN right after DONE); once all read loops have consumed one,
	// every socket is drained and closing on exit cannot RST undelivered data.
	t.wg.Wait()
	os.Exit(0)
}
