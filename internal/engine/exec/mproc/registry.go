package mproc

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"net"
	"os"
	"os/exec"
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

// envWorker marks a re-exec'd worker: when it is set WorkerMaybe takes over
// instead of running the normal main. Everything else a worker needs arrives
// on its inherited connections.
const envWorker = "GPF_MPROC_WORKER"

// handshakeTimeout bounds the wait for every worker's READY — the one step
// that catches a re-exec'd binary that never calls WorkerMaybe. The job itself
// runs without a deadline; crashes surface as EOF or a non-zero exit instead.
const handshakeTimeout = 30 * time.Second

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

// Run executes the registered job name with the given spec. Procs <= 1 runs
// purely in-process; otherwise the driver wires the full loopback TCP mesh,
// re-execs the current binary W-1 times with each worker's ends as inherited
// file descriptors, and all ranks run the job in SPMD lockstep. Run returns
// rank 0's output and the cross-rank merged metrics; any rank's failure
// (error return, crash, lost connection) fails the whole job with the first
// cause.
func Run(name string, spec []byte, opts Options) (*Result, error) {
	// A worker's JOB frame parser enforces these bounds (parseJob); past
	// them Run would wire the mesh and start workers only to see each exit.
	if opts.Procs > maxRanks {
		return nil, fmt.Errorf("mproc: Options.Procs %d exceeds limit %d", opts.Procs, maxRanks)
	}
	if opts.Slots < 0 || opts.Slots > maxSlots {
		return nil, fmt.Errorf("mproc: Options.Slots %d outside [0, %d]", opts.Slots, maxSlots)
	}
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
	mesh, err := wire(ln, procs)
	_ = ln.Close()
	if err != nil {
		return nil, err
	}

	t := newTransport(0, mesh[0])
	cmds := make([]*exec.Cmd, procs)
	var reap sync.WaitGroup
	// teardown is the failure-path cleanup: push the cause to live workers so
	// their blocked collectives unwind, kill and reap the children, close the
	// sockets and join the read loops — no goroutine and no fd outlives Run.
	teardown := func(cause error) error {
		t.broadcastErr(cause)
		for _, cmd := range cmds {
			if cmd != nil {
				_ = cmd.Process.Kill()
			}
		}
		reap.Wait()
		t.closeAll()
		return t.Err()
	}

	for rank := 1; rank < procs; rank++ {
		cmd, err := startWorker(bin, mesh[rank])
		if err != nil {
			for _, ends := range mesh[rank+1:] {
				closeConns(ends)
			}
			return nil, teardown(fmt.Errorf("mproc: start worker %d: %w", rank, err))
		}
		cmds[rank] = cmd
		reap.Add(1)
		go func(rank int, cmd *exec.Cmd) {
			defer reap.Done()
			if werr := cmd.Wait(); werr != nil {
				// A worker that fails its job sends an ERR frame and then
				// exits non-zero.
				t.failAfterGrace(fmt.Errorf("mproc: worker rank %d exited: %w", rank, werr))
			}
		}(rank, cmd)
		t.sendTo(rank, frameJob, encodeJob(jobMsg{name: name, rank: rank, procs: procs, slots: opts.Slots, spec: spec}))
	}
	// Read loops start only now: before this a closed end is the driver's own
	// doing (an unstarted worker's), not a lost peer.
	t.startReadLoops()
	ready := time.After(handshakeTimeout)
	for n := 1; n < procs; n++ {
		select {
		case <-t.readyCh:
		case <-t.job.Done():
			return nil, teardown(t.Err())
		case <-ready:
			return nil, teardown(fmt.Errorf("mproc: %d of %d workers ready at the handshake timeout (does the binary call WorkerMaybe?)", n-1, procs-1))
		}
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
		case m := <-t.doneCh:
			workerMetrics = append(workerMetrics, m)
		case <-t.job.Done():
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

// wire builds the whole mesh in the driver before any worker exists: for
// every pair of ranks i < j it dials ln and accepts. mesh[i][j] is rank i's
// end of the pair and the diagonal stays nil. A dialed connection is queued
// before the Accept that follows it, so an accepted connection whose remote
// address is not the dialer's local address is some other local client: wire
// fails naming it and closes every connection it made.
func wire(ln net.Listener, procs int) ([][]net.Conn, error) {
	mesh := make([][]net.Conn, procs)
	for i := range mesh {
		mesh[i] = make([]net.Conn, procs)
	}
	fail := func(err error) ([][]net.Conn, error) {
		for _, ends := range mesh {
			closeConns(ends)
		}
		return nil, fmt.Errorf("mproc: wire: %w", err)
	}
	for i := range mesh {
		for j := i + 1; j < procs; j++ {
			var err error
			if mesh[i][j], err = net.Dial("tcp", ln.Addr().String()); err != nil {
				return fail(err)
			}
			if mesh[j][i], err = ln.Accept(); err != nil {
				return fail(err)
			}
			if got := mesh[j][i].RemoteAddr().String(); got != mesh[i][j].LocalAddr().String() {
				return fail(fmt.Errorf("stray connection from %s", got))
			}
		}
	}
	return mesh, nil
}

func closeConns(conns []net.Conn) {
	for _, c := range conns {
		if c != nil {
			_ = c.Close()
		}
	}
}

// startWorker re-execs bin as the worker whose mesh ends are ends, passed as
// inherited fds in ascending peer rank order: fd 3 is the driver, fds 4… the
// other workers. The driver's copies of those ends are closed once Start
// returns, whatever it returned, so a worker's exit is its peers' EOF.
func startWorker(bin string, ends []net.Conn) (*exec.Cmd, error) {
	cmd := exec.Command(bin)
	cmd.Env = append(os.Environ(), envWorker+"=1")
	cmd.Stdout = os.Stderr // a worker's prints must not corrupt driver stdout
	cmd.Stderr = os.Stderr
	defer func() {
		closeConns(ends)
		for _, f := range cmd.ExtraFiles {
			_ = f.Close()
		}
	}()
	for _, c := range ends {
		if c == nil {
			continue
		}
		f, err := c.(*net.TCPConn).File()
		if err != nil {
			return nil, err
		}
		cmd.ExtraFiles = append(cmd.ExtraFiles, f)
	}
	return cmd, cmd.Start()
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

// workerMain is the worker process body: adopt the inherited mesh, report
// READY, run the job in lockstep, report DONE (or ERR) and exit.
func workerMain() {
	job, conns, err := inherit()
	if err != nil {
		fatalWorker(err)
	}
	fn, ok := jobFor(job.name)
	if !ok {
		fatalWorker(fmt.Errorf("job %q not registered in worker binary (register before WorkerMaybe)", job.name))
	}
	t := newTransport(job.rank, conns)
	t.startReadLoops()
	t.sendTo(0, frameReady, nil)

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
		if r != job.rank {
			t.sendTo(r, frameFin, nil)
		}
	}
	// Every peer sends its own terminal frame (driver: FIN after all DONEs;
	// workers: FIN right after DONE); once all read loops have consumed one,
	// every socket is drained and closing on exit cannot RST undelivered data.
	t.wg.Wait()
	os.Exit(0)
}

// inherit reads the JOB frame from the driver's connection at fd 3, then
// adopts the other workers' connections at fds 4… in ascending rank order.
func inherit() (jobMsg, []net.Conn, error) {
	dc, err := fileConn(3)
	if err != nil {
		return jobMsg{}, nil, err
	}
	kind, body, err := readFrame(dc)
	if err == nil && kind != frameJob {
		err = fmt.Errorf("got frame kind 0x%02x", kind)
	}
	if err != nil {
		return jobMsg{}, nil, fmt.Errorf("expected job frame: %w", err)
	}
	job, err := parseJob(body)
	if err != nil {
		return jobMsg{}, nil, err
	}
	conns := make([]net.Conn, job.procs)
	conns[0] = dc
	fd := 4
	for r := 1; r < job.procs; r++ {
		if r == job.rank {
			continue
		}
		if conns[r], err = fileConn(fd); err != nil {
			return jobMsg{}, nil, err
		}
		fd++
	}
	return job, conns, nil
}

// fileConn adopts an inherited socket fd as a net.Conn.
func fileConn(fd int) (net.Conn, error) {
	f := os.NewFile(uintptr(fd), "mproc-peer")
	defer f.Close()
	c, err := net.FileConn(f)
	if err != nil {
		return nil, fmt.Errorf("adopt fd %d: %w", fd, err)
	}
	return c, nil
}
