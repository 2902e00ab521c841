package compress

import (
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/gpf-go/gpf/internal/genome"
)

// The sequence codec implements Fig 4 of the paper: bases are stored in
// 2-bit codes (A:00 C:01 G:10 T:11 per genome.BaseCode), the sequence length
// precedes the packed payload, and special characters (N) are converted to A
// with the corresponding quality byte replaced by the out-of-band marker
// qualNMarker. The quality codec (quality.go) carries the marker through, so
// the decompressor recognizes "A with marker quality" and restores N.
//
// Restoration convention: an N base's quality is rewritten to '#' (Phred 2),
// the standard no-call quality. The codec is therefore lossless for inputs
// where N bases already carry '#' — which sequencers emit and the fastq
// simulator guarantees — and normalizing otherwise.

// qualNMarker is the out-of-band quality value marking a converted N base.
// Legal FASTQ quality bytes are [33,126] (§4.2 footnote 1), so 0 is safe.
const qualNMarker = 0

// qualNRestore is the quality byte written back for an N base on decode.
const qualNRestore = '#'

// packSeq appends the 2-bit packed form of seq to dst. seq must contain only
// ACGT (N conversion happens earlier).
func packSeq(dst []byte, seq []byte) ([]byte, error) {
	var cur byte
	var n uint
	for _, b := range seq {
		code := genome.BaseCode(b)
		if code < 0 {
			return nil, fmt.Errorf("compress: unpackable base %q", b)
		}
		cur = cur<<2 | byte(code)
		n++
		if n == 4 {
			dst = append(dst, cur)
			cur, n = 0, 0
		}
	}
	if n > 0 {
		dst = append(dst, cur<<(2*(4-n)))
	}
	return dst, nil
}

// unpack4Tab expands one packed byte into its four bases.
var unpack4Tab = func() (t [256][4]byte) {
	for b := 0; b < 256; b++ {
		for i := 0; i < 4; i++ {
			t[b][i] = genome.CodeBase((b >> uint(6-2*i)) & 3)
		}
	}
	return
}()

// unpackSeq decodes length bases from packed, returning the bases and the
// number of bytes consumed. It routes through Unpack2Bit so DecodeSeq shares
// the word-parallel fast path.
func unpackSeq(packed []byte, length int) ([]byte, int, error) {
	// Validate against the available bytes before sizing the output: length
	// may come from a corrupt header.
	need := (length + 3) / 4
	if length < 0 || len(packed) < need {
		return nil, 0, fmt.Errorf("compress: packed sequence truncated: need %d bytes, have %d", need, len(packed))
	}
	out := make([]byte, length)
	n, err := Unpack2Bit(out, packed)
	if err != nil {
		return nil, 0, err
	}
	return out, n, nil
}

// convertSpecials returns seq and qual with every non-ACGT base rewritten to
// 'A' and its quality to the marker, per Fig 4. Clean sequences (the common
// case) are returned as-is without copying.
func convertSpecials(seq, qual []byte) ([]byte, []byte, error) {
	if len(seq) != len(qual) {
		return nil, nil, fmt.Errorf("compress: seq len %d != qual len %d", len(seq), len(qual))
	}
	first := -1
	for i, b := range seq {
		if genome.BaseCode(b) < 0 {
			first = i
			break
		}
	}
	if first == -1 {
		return seq, qual, nil
	}
	outSeq := append([]byte(nil), seq...)
	outQual := append([]byte(nil), qual...)
	for i := first; i < len(outSeq); i++ {
		if genome.BaseCode(outSeq[i]) < 0 {
			outSeq[i] = 'A'
			outQual[i] = qualNMarker
		}
	}
	return outSeq, outQual, nil
}

// restoreSpecials rewrites marker positions back to N/'#' in place.
func restoreSpecials(seq, qual []byte) {
	for i, q := range qual {
		if q == qualNMarker {
			seq[i] = 'N'
			qual[i] = qualNRestore
		}
	}
}

// packCodeTab folds genome.BaseCode and the non-ACGT→0 substitution into one
// table so the packer is a pure gather (no sign test per base).
var packCodeTab = func() (t [256]byte) {
	for b := 0; b < 256; b++ {
		if c := genome.BaseCode(byte(b)); c > 0 {
			t[b] = byte(c)
		}
	}
	return
}()

// Pack2Bit appends the 2-bit packed form of seq to dst, substituting code 0
// ('A') for any non-ACGT byte instead of failing. Callers that must restore
// the original bytes (e.g. the columnar codec's seq column) record the
// substituted positions out of band; packSeq remains the strict variant used
// by the quality-coupled Fig 4 path.
//
// It is word-parallel: the output is grown once, then each iteration gathers
// eight input bytes through packCodeTab into two packed bytes — no rolling
// shift register, no per-base append, and the bounds checks amortize over the
// unrolled body. Byte-identical to the per-base oracle pack2BitRef
// (sequence_kernel_test.go).
func Pack2Bit(dst, seq []byte) []byte {
	need := (len(seq) + 3) / 4
	n := len(dst)
	dst = slices.Grow(dst, need)[:n+need]
	out := dst[n:]
	i, o := 0, 0
	for ; i+8 <= len(seq); i, o = i+8, o+2 {
		s := seq[i : i+8 : i+8]
		out[o] = packCodeTab[s[0]]<<6 | packCodeTab[s[1]]<<4 | packCodeTab[s[2]]<<2 | packCodeTab[s[3]]
		out[o+1] = packCodeTab[s[4]]<<6 | packCodeTab[s[5]]<<4 | packCodeTab[s[6]]<<2 | packCodeTab[s[7]]
	}
	var cur byte
	var k uint
	for ; i < len(seq); i++ {
		cur = cur<<2 | packCodeTab[seq[i]]
		k++
		if k == 4 {
			out[o] = cur
			o++
			cur, k = 0, 0
		}
	}
	if k > 0 {
		out[o] = cur << (2 * (4 - k))
	}
	return dst
}

// unpack4LE holds unpack4Tab's four expanded bases as one little-endian
// uint32, so the unpacker can emit four bases with a single 32-bit store
// (and eight with one 64-bit store) instead of a 4-byte copy loop.
var unpack4LE = func() (t [256]uint32) {
	for b := range t {
		t[b] = binary.LittleEndian.Uint32(unpack4Tab[b][:])
	}
	return
}()

// Unpack2Bit decodes len(dst) bases from packed into dst (the caller's arena
// slab) and returns the number of packed bytes consumed. Unlike unpackSeq it
// never allocates: the 4-base tail that would overrun dst is staged through a
// stack temporary. The expansion is word-parallel — two packed bytes become
// one 8-byte store per iteration — and byte-identical to the table-copy
// oracle unpack2BitRef (sequence_kernel_test.go).
func Unpack2Bit(dst, packed []byte) (int, error) {
	length := len(dst)
	need := (length + 3) / 4
	if len(packed) < need {
		return 0, fmt.Errorf("compress: packed sequence truncated: need %d bytes, have %d", need, len(packed))
	}
	i := 0
	for ; i+8 <= length; i += 8 {
		w := uint64(unpack4LE[packed[i/4]]) | uint64(unpack4LE[packed[i/4+1]])<<32
		binary.LittleEndian.PutUint64(dst[i:], w)
	}
	for ; i+4 <= length; i += 4 {
		binary.LittleEndian.PutUint32(dst[i:], unpack4LE[packed[i/4]])
	}
	if i < length {
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], unpack4LE[packed[i/4]])
		copy(dst[i:], tail[:length-i])
	}
	return need, nil
}

// EncodeSeq compresses one sequence (no quality coupling): uvarint length +
// 2-bit payload. Ns are not allowed here; use the block codec for reads with
// quality-coupled N handling. Exposed for reference-sequence storage.
func EncodeSeq(seq []byte) ([]byte, error) {
	out := binary.AppendUvarint(nil, uint64(len(seq)))
	return packSeq(out, seq)
}

// DecodeSeq inverts EncodeSeq.
func DecodeSeq(data []byte) ([]byte, error) {
	length, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("compress: bad sequence length header")
	}
	seq, _, err := unpackSeq(data[n:], int(length))
	return seq, err
}
