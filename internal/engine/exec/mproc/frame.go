// Package mproc is the multi-process executor backend: W cooperating OS
// processes run the same registered job function in SPMD lockstep (rank 0 is
// the driver process itself, ranks 1..W-1 are re-exec'd workers), and the
// buckets of every collective — shuffles and action allgathers alike — move
// between ranks as length-prefixed frames over loopback TCP connections. The
// serialized blocks crossing the wire are exactly the blocks the engine's
// codecs produced (internal/colfmt for columnar datasets) — no re-encode at
// the transport boundary.
//
// Ranks are born connected: the driver dials and accepts every pair's
// connection itself before any worker exists, and each worker inherits its
// ends as file descriptors (a Unix host is required). The driver then sends
// each worker one JOB frame and starts its own job once every worker has
// answered READY; there is no other setup protocol.
//
// Because Go closures cannot cross process boundaries, jobs are registered by
// name (RegisterJob) and workers are the current executable re-exec'd with a
// worker environment; WorkerMaybe, called first thing in main (or TestMain),
// hijacks the process when that environment is present. Only []byte job specs
// and []byte results cross the wire; every rank derives identical control
// flow from the same spec, which is what keeps the engine's collective
// sequence numbers aligned.
package mproc

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Frame kinds. A frame is [kind u8][len u32 LE][payload]; payload fields are
// uvarint-framed (see payload/reader below).
const (
	frameJob    = byte(iota + 1) // driver→worker: name, rank, procs, slots, spec
	frameReady                   // worker→driver: mesh adopted, job starting
	frameBucket                  // shuffle or allgather bucket: seq, geometry, (m, r), block
	frameDone                    // worker→driver: job done, gob metrics
	frameFin                     // worker→peer: clean shutdown, expect EOF next
	frameErr                     // any→any: origin rank, error message
	frameMax    = frameErr
)

const (
	// maxFramePayload caps a frame's declared length. A bucket block is one
	// encoded partition bucket — far below this — so anything bigger is a
	// corrupt or hostile header, rejected before any allocation happens.
	maxFramePayload = 1 << 28 // 256 MiB
	// readChunk bounds how much readFrame allocates ahead of data actually
	// received, so a lying length header on a truncated stream costs at most
	// one chunk (FuzzFrameDecode's allocation budget holds it to that).
	readChunk = 1 << 20 // 1 MiB
	// maxRanks bounds rank/proc counts in control frames, and maxSlots a
	// JOB frame's slot count.
	maxRanks = 1 << 12
	maxSlots = 1 << 16
)

// frameHeaderLen is the fixed [kind][len u32] prefix.
const frameHeaderLen = 5

// putFrameHeader writes the frame header for kind and payload length n into
// hdr.
func putFrameHeader(hdr *[frameHeaderLen]byte, kind byte, n int) {
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(n))
}

// readFrame reads one frame. The declared length is validated against
// maxFramePayload before anything is allocated, and the payload buffer grows
// chunk-wise with the bytes actually received — a corrupt header can neither
// over-allocate nor panic, it errors. io.EOF is returned untranslated only
// on a clean boundary (no partial header).
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("mproc: truncated frame header: %w", err)
	}
	kind := hdr[0]
	if kind == 0 || kind > frameMax {
		return 0, nil, fmt.Errorf("mproc: unknown frame kind 0x%02x", kind)
	}
	n := int(binary.LittleEndian.Uint32(hdr[1:]))
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("mproc: frame length %d exceeds limit %d", n, maxFramePayload)
	}
	if n == 0 {
		return kind, nil, nil
	}
	payload := make([]byte, 0, min(n, readChunk))
	for len(payload) < n {
		got := len(payload)
		k := min(n-got, readChunk)
		payload = slices.Grow(payload, k)[:got+k]
		if _, err := io.ReadFull(r, payload[got:]); err != nil {
			return 0, nil, fmt.Errorf("mproc: truncated frame payload (%d of %d bytes): %w", got, n, err)
		}
	}
	return kind, payload, nil
}

// payload builds a frame payload from uvarint-framed fields.
type payload struct{ b []byte }

func (p *payload) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	p.b = append(p.b, tmp[:binary.PutUvarint(tmp[:], v)]...)
}

func (p *payload) bytes(b []byte) {
	p.uvarint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *payload) str(s string) {
	p.uvarint(uint64(len(s)))
	p.b = append(p.b, s...)
}

// reader consumes a frame payload field by field. Every accessor
// bounds-checks before touching the buffer: corrupt input yields an error,
// never a panic or an allocation sized from untrusted bytes (byte-field
// results alias the already-received payload).
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("mproc: corrupt frame: "+format, args...)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// intn reads a uvarint bounded by limit (inclusive).
func (r *reader) intn(what string, limit uint64) int {
	v := r.uvarint()
	if r.err == nil && v > limit {
		r.fail("%s %d exceeds limit %d", what, v, limit)
	}
	return int(v)
}

func (r *reader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail("field length %d exceeds remaining payload %d", n, len(r.b))
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) str() string { return string(r.bytes()) }

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail("missing byte field")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("mproc: corrupt frame: %d trailing bytes", len(r.b))
	}
	return nil
}

// --- typed messages ---

type jobMsg struct {
	name  string
	rank  int
	procs int
	slots int
	spec  []byte
}

func encodeJob(m jobMsg) []byte {
	var p payload
	p.str(m.name)
	p.uvarint(uint64(m.rank))
	p.uvarint(uint64(m.procs))
	p.uvarint(uint64(m.slots))
	p.bytes(m.spec)
	return p.b
}

// parseJob accepts only a worker's rank: 1 <= rank < procs, since rank 0 is
// the driver that sends the frame.
func parseJob(b []byte) (jobMsg, error) {
	r := reader{b: b}
	m := jobMsg{name: r.str(), rank: r.intn("rank", maxRanks), procs: r.intn("procs", maxRanks),
		slots: r.intn("slots", maxSlots), spec: r.bytes()}
	if r.err == nil && (m.rank < 1 || m.rank >= m.procs) {
		r.fail("worker rank %d outside job of %d procs", m.rank, m.procs)
	}
	return m, r.done()
}

type bucketMsg struct {
	seq     uint64
	in, out int
	m, r    int
	empty   bool
	block   []byte
}

func encodeBucket(m bucketMsg) []byte {
	var p payload
	p.uvarint(m.seq)
	p.uvarint(uint64(m.in))
	p.uvarint(uint64(m.out))
	p.uvarint(uint64(m.m))
	p.uvarint(uint64(m.r))
	if m.empty {
		p.b = append(p.b, 1)
	} else {
		p.b = append(p.b, 0)
		p.bytes(m.block)
	}
	return p.b
}

// maxPartitions bounds shuffle geometry in bucket frames (sizes the local
// block table, so it must be validated before allocation).
const maxPartitions = 1 << 20

func parseBucket(b []byte) (bucketMsg, error) {
	r := reader{b: b}
	m := bucketMsg{
		seq: r.uvarint(),
		in:  r.intn("map count", maxPartitions),
		out: r.intn("reduce count", maxPartitions),
	}
	m.m = r.intn("map index", maxPartitions)
	m.r = r.intn("reduce index", maxPartitions)
	m.empty = r.byte() != 0
	if !m.empty {
		m.block = r.bytes()
	}
	if r.err == nil {
		if m.in < 1 || m.out < 1 || m.m >= m.in || m.r >= m.out || m.in*m.out > maxPartitions {
			r.fail("bucket (%d,%d) outside %dx%d geometry", m.m, m.r, m.in, m.out)
		}
	}
	return m, r.done()
}

type errMsg struct {
	origin int
	msg    string
}

func encodeErr(m errMsg) []byte {
	var p payload
	p.uvarint(uint64(m.origin))
	p.str(m.msg)
	return p.b
}

func parseErr(b []byte) (errMsg, error) {
	r := reader{b: b}
	m := errMsg{origin: r.intn("rank", maxRanks), msg: r.str()}
	return m, r.done()
}
