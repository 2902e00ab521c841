package compress

import (
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/gpf-go/gpf/internal/genome"
)

// The sequence codec stores bases in 2-bit codes (A:00 C:01 G:10 T:11 per
// genome.BaseCode), §4.2 of the paper. Every byte outside the uppercase ACGT
// alphabet — N, IUPAC codes, lowercase — packs as its case-fold or code 0 and
// goes on an exception list that restores it on decode, so the column is
// lossless for any bytes and independent of the quality column.

// seqException marks the bytes that do not round-trip through the 2-bit
// alphabet — non-ACGT (N etc.) and lowercase bases, which BaseCode
// case-folds — and therefore go on the seq column's exception list.
var seqException = func() (t [256]bool) {
	for b := range t {
		code := genome.BaseCode(byte(b))
		t[b] = code < 0 || genome.CodeBase(code) != byte(b)
	}
	return
}()

// AppendSeqColumn appends the seq column of n sequences, seq(i) returning the
// i-th, to dst. Layout: per-record uvarint lengths; uvarint exception count;
// exceptions as (uvarint gap in global base index, original byte); then
// per-record 2-bit packed bases (Pack2Bit, byte aligned per record).
func AppendSeqColumn(dst []byte, n int, seq func(i int) []byte) []byte {
	total := 0
	for i := 0; i < n; i++ {
		total += len(seq(i))
	}
	// Lengths (two bytes cover a 16 kb read), the exception count, a quarter
	// byte per base rounded up per record; exceptions grow it if there are any.
	dst = slices.Grow(dst, 3*n+binary.MaxVarintLen64+total/4)
	for i := 0; i < n; i++ {
		dst = binary.AppendUvarint(dst, uint64(len(seq(i))))
	}
	// Exceptions: global base index (cumulative across the concatenated
	// sequences) and original byte.
	var excIdx []int
	var excByte []byte
	gi := 0
	for i := 0; i < n; i++ {
		s := seq(i)
		for j, b := range s {
			if seqException[b] {
				excIdx = append(excIdx, gi+j)
				excByte = append(excByte, b)
			}
		}
		gi += len(s)
	}
	dst = binary.AppendUvarint(dst, uint64(len(excIdx)))
	prev := 0
	for j, idx := range excIdx {
		dst = binary.AppendUvarint(dst, uint64(idx-prev))
		dst = append(dst, excByte[j])
		prev = idx
	}
	for i := 0; i < n; i++ {
		dst = Pack2Bit(dst, seq(i))
	}
	return dst
}

// DecodeSeqColumn inverts AppendSeqColumn: col must hold exactly one column
// of n sequences. set receives each non-empty sequence, a disjoint region of
// one slab with capacity clipped to length (in-place writes stay record-local,
// appends copy); empty sequences are not handed over.
func DecodeSeqColumn(col []byte, n int, set func(i int, s []byte)) error {
	lens, total, rest, err := ReadLengths(col, n, 4*len(col))
	if err != nil {
		return err
	}
	nExc, k := binary.Uvarint(rest)
	if k <= 0 {
		return fmt.Errorf("compress: truncated exception count")
	}
	rest = rest[k:]
	if nExc > uint64(len(rest)) {
		return fmt.Errorf("compress: exception count %d exceeds column size %d", nExc, len(rest))
	}
	excIdx := make([]int, nExc)
	excByte := make([]byte, nExc)
	prev := 0
	for j := range excIdx {
		gap, k := binary.Uvarint(rest)
		if k <= 0 {
			return fmt.Errorf("compress: truncated exception %d gap", j)
		}
		if len(rest) == k {
			return fmt.Errorf("compress: exception %d missing byte", j)
		}
		idx := prev + int(gap)
		if idx < 0 || idx >= total {
			return fmt.Errorf("compress: exception %d index %d out of range [0,%d)", j, idx, total)
		}
		excIdx[j] = idx
		excByte[j] = rest[k]
		rest = rest[k+1:]
		prev = idx
	}
	slab := make([]byte, total)
	pos := 0
	for i, l := range lens {
		consumed, err := Unpack2Bit(slab[pos:pos+l], rest)
		if err != nil {
			return fmt.Errorf("compress: seq %d: %w", i, err)
		}
		rest = rest[consumed:]
		pos += l
	}
	if len(rest) != 0 {
		return fmt.Errorf("compress: %d trailing seq bytes", len(rest))
	}
	for j, idx := range excIdx {
		slab[idx] = excByte[j]
	}
	pos = 0
	for i, l := range lens {
		if l > 0 {
			set(i, slab[pos:pos+l:pos+l])
		}
		pos += l
	}
	return nil
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
// ('A') for any non-ACGT byte instead of failing; the seq column restores the
// original bytes from its exception list.
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

// unpack4Tab expands one packed byte into its four bases.
var unpack4Tab = func() (t [256][4]byte) {
	for b := 0; b < 256; b++ {
		for i := 0; i < 4; i++ {
			t[b][i] = genome.CodeBase((b >> uint(6-2*i)) & 3)
		}
	}
	return
}()

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
// slab) and returns the number of packed bytes consumed. It never allocates:
// the 4-base tail that would overrun dst is staged through a stack temporary.
// The expansion is word-parallel — two packed bytes become one 8-byte store
// per iteration — and byte-identical to the table-copy oracle unpack2BitRef
// (sequence_kernel_test.go).
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
