package mproc

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"github.com/gpf-go/gpf/internal/testutil/allocbudget"
)

// frame wraps body in a wire frame for the seed corpus.
func frame(kind byte, body []byte) []byte {
	var hdr [frameHeaderLen]byte
	putFrameHeader(&hdr, kind, len(body))
	return append(hdr[:], body...)
}

// Allocation budget of FuzzFrameDecode. A lying header costs one chunk ahead
// of the data, plus the header and the error's formatting; past the first
// chunk the payload grows like an append, at most 5 bytes allocated per byte
// received. Worst seen on the seeds: 1 MiB + 128 bytes for the 16 MiB claim
// behind 69 input bytes, at most 192 bytes on any other.
const (
	framePerByte = 6
	frameSlack   = readChunk + frameHeaderLen + 1<<10
)

// FuzzFrameDecode drives the full untrusted-input surface: the frame reader
// (length header validated before any payload byte is read) and every
// payload parser (bounds-checked field readers). Nothing here may panic or
// allocate past the budget above.
func FuzzFrameDecode(f *testing.F) {
	// Valid encodings of every message kind, and JOBs naming no worker (rank
	// 0 is the driver, rank 4 of 4 does not exist), which parseJob refuses.
	job := jobMsg{name: "wgs", rank: 2, procs: 4, slots: 8, spec: []byte("spec")}
	f.Add(frame(frameJob, encodeJob(job)))
	f.Add(frame(frameJob, encodeJob(jobMsg{name: "wgs", rank: 0, procs: 4})))
	f.Add(frame(frameJob, encodeJob(jobMsg{name: "wgs", rank: 4, procs: 4})))
	f.Add(frame(frameJob, encodeJob(job)[:6]))                                                          // cut after procs
	f.Add(frame(frameJob, append(encodeJob(jobMsg{name: "wgs", rank: 2, procs: 4, slots: 8})[:7], 16))) // 16-byte spec, none sent
	f.Add(frame(frameReady, nil))
	f.Add(frame(frameBucket, encodeBucket(bucketMsg{seq: 7, in: 3, out: 2, m: 1, r: 1, block: []byte{1, 2, 3}})))
	f.Add(frame(frameBucket, encodeBucket(bucketMsg{seq: 7, in: 3, out: 2, m: 2, r: 0, empty: true})))
	// An allgather bucket: n = 4 partitions × 3 ranks, partition 2 to rank 1.
	f.Add(frame(frameBucket, encodeBucket(bucketMsg{seq: 9, in: 4, out: 3, m: 2, r: 1, block: []byte("blob")})))
	f.Add(frame(frameMax+1, []byte{9, 3, 1})) // first kind past the table: 7
	f.Add(frame(frameDone, []byte{0xff, 0x01}))
	f.Add(frame(frameFin, nil))
	f.Add(frame(frameErr, encodeErr(errMsg{origin: 1, msg: "boom"})))
	// Hostile headers: lying lengths, truncation, geometry overflow.
	f.Add([]byte{frameBucket, 0xff, 0xff, 0xff, 0xff, 1, 2, 3})                     // 4 GiB claim, 3 bytes of data
	f.Add([]byte{frameBucket, 0x10, 0x00, 0x00, 0x10, 0x01})                        // length >> payload
	f.Add(append([]byte{frameBucket, 0x00, 0x00, 0x00, 0x01}, make([]byte, 64)...)) // 16 MiB claim, 64 B shipped
	f.Add(frame(frameBucket, encodeBucket(bucketMsg{seq: 1, in: 1 << 19, out: 1 << 19, m: 0, r: 0, empty: true})))
	f.Add(frame(0x7f, []byte("unknown kind")))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var in *bytes.Reader
		allocbudget.Check(t, len(data), framePerByte, frameSlack, func() {
			in = bytes.NewReader(data)
			kind, body, err := readFrame(in)
			if err != nil {
				return
			}
			switch kind {
			case frameJob:
				if m, err := parseJob(body); err == nil && (m.rank < 1 || m.rank >= m.procs) {
					t.Fatalf("parseJob accepted a rank no worker holds: %+v", m)
				}
			case frameBucket:
				if m, err := parseBucket(body); err == nil {
					// The parsed geometry is what sizes exchange state: re-check
					// the invariants the transport relies on.
					if m.in < 1 || m.out < 1 || m.m >= m.in || m.r >= m.out || m.in*m.out > maxPartitions {
						t.Fatalf("parseBucket accepted bad geometry: %+v", m)
					}
				}
			case frameErr:
				_, _ = parseErr(body)
			}
		})
		if len(data) >= frameHeaderLen && binary.LittleEndian.Uint32(data[1:]) > maxFramePayload && in.Len() < len(data)-frameHeaderLen {
			t.Fatalf("readFrame read %d payload bytes of a frame declared past the %d-byte cap",
				len(data)-frameHeaderLen-in.Len(), maxFramePayload)
		}
	})
}

// TestFrameRoundTrip pins the exact wire bytes of a JOB frame, a bucket
// frame and the empty FIN frame, and the JOB and the bucket surviving a round
// trip.
func TestFrameRoundTrip(t *testing.T) {
	jm := jobMsg{name: "wgs", rank: 2, procs: 3, slots: 4, spec: []byte("s")}
	bm := bucketMsg{seq: 42, in: 5, out: 3, m: 4, r: 2, block: []byte{9, 8, 7}}
	var buf bytes.Buffer
	c := conn{c: nopConn{&buf}}
	for _, f := range []struct {
		kind byte
		body []byte
	}{{frameJob, encodeJob(jm)}, {frameBucket, encodeBucket(bm)}, {frameFin, nil}} {
		if err := c.writeFrame(f.kind, f.body); err != nil {
			t.Fatal(err)
		}
	}
	want := []byte{
		1, 9, 0, 0, 0, // JOB, payload length u32 LE
		3, 'w', 'g', 's', 2, 3, 4, 1, 's', // name, rank, procs, slots, spec
		3, 10, 0, 0, 0, // BUCKET
		42, 5, 3, 4, 2, 0, 3, 9, 8, 7, // seq, in, out, m, r, non-empty, block
		5, 0, 0, 0, 0, // FIN
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("wire bytes = %v, want %v", buf.Bytes(), want)
	}
	kind, body, err := readFrame(&buf)
	if err != nil || kind != frameJob {
		t.Fatalf("kind %d err %v", kind, err)
	}
	if gotJob, err := parseJob(body); err != nil || gotJob.name != jm.name || gotJob.rank != jm.rank ||
		gotJob.procs != jm.procs || gotJob.slots != jm.slots || !bytes.Equal(gotJob.spec, jm.spec) {
		t.Fatalf("job round trip: %+v, %v; want %+v", gotJob, err, jm)
	}
	if kind, body, err = readFrame(&buf); err != nil || kind != frameBucket {
		t.Fatalf("kind %d err %v", kind, err)
	}
	got, err := parseBucket(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.seq != bm.seq || got.in != bm.in || got.out != bm.out || got.m != bm.m || got.r != bm.r || !bytes.Equal(got.block, bm.block) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, bm)
	}
}

// TestFrameLengthRejectedBeforeAlloc: a header claiming more than the payload
// cap errors immediately; a header claiming more than it ships errors after
// allocating at most one chunk.
func TestFrameLengthRejectedBeforeAlloc(t *testing.T) {
	huge := []byte{frameBucket, 0xff, 0xff, 0xff, 0x7f} // ~2 GiB declared
	if _, _, err := readFrame(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized frame length accepted")
	}
	lying := append([]byte{frameBucket, 0x00, 0x00, 0x00, 0x01}, make([]byte, 64)...) // 16 MiB declared, 64 B shipped
	var err error
	allocbudget.Check(t, 0, 0, readChunk+1<<10, func() {
		_, _, err = readFrame(bytes.NewReader(lying))
	})
	if err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// nopConn adapts a buffer to net.Conn for writeFrame in tests.
type nopConn struct{ *bytes.Buffer }

func (nopConn) Close() error                       { return nil }
func (nopConn) LocalAddr() net.Addr                { return nil }
func (nopConn) RemoteAddr() net.Addr               { return nil }
func (nopConn) SetDeadline(t time.Time) error      { return nil }
func (nopConn) SetReadDeadline(t time.Time) error  { return nil }
func (nopConn) SetWriteDeadline(t time.Time) error { return nil }
