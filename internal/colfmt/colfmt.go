// Package colfmt implements columnar partition storage for SAM records —
// ROADMAP item 1, the PAM-style layout. A batch of records is encoded as
// per-field column blocks (name, flag, coordinates, mapq, cigar, mate, seq,
// qual, tags) behind a header that frames every column with its byte length,
// so individual columns decode independently and a projection mask can skip
// the columns a stage never reads without touching their bytes. Codec plugs
// into the engine as a ProjectableSerializer + StatsSerializer: a
// coordinate-only fused stage decodes the coord column and prunes seq/qual —
// the dominant bytes of a wide record — and reports the split through the
// DecodedBytes/PrunedBytes task counters.
//
// Block layout (version 1):
//
//	magic "Gc", version byte
//	uvarint record count
//	uvarint present-field bitmask (which columns the block carries; Marshal
//	    writes them all, the decoder accepts any subset)
//	per present field, in bit order:
//	    uvarint column byte length
//	    column payload
//
// Column encodings (all integers varint/uvarint, deltas zigzag via varint):
//
//	name   per-record uvarint lengths, then concatenated bytes
//	flag   per-record uvarint
//	coord  per-record varint ΔRefID, varint ΔPos (delta from previous record)
//	mapq   one raw byte per record
//	cigar  per-record uvarint op counts, then (uvarint len, op byte) stream
//	mate   per-record varint ΔMateRef, varint ΔMatePos, varint TempLen
//	seq    per-record uvarint lengths; uvarint exception count; exceptions as
//	       (uvarint gap in global base index, original byte); then per-record
//	       2-bit packed bases (bytes outside the uppercase ACGT alphabet pack
//	       as their case-fold or code 0 and are restored from the exception
//	       list — self-contained, unlike the Fig 4 codec whose N restoration
//	       rides the quality stream)
//	qual   mode byte (0 Huffman-delta via compress.EncodeQualBlock, 1 raw for
//	       out-of-range bytes or a histogram whose code would pass 31 bits);
//	       per-record uvarint lengths; payload
//	tags   per-record uvarint tag counts with (uvarint klen, uvarint vlen)
//	       pairs, then concatenated key/value bytes in sorted-key order
//
// The batch decoder is arena-backed: names and tag strings are substrings of
// one string allocation per column, cigar ops slice one shared []CigarOp
// slab, and seq/qual bases decode into shared byte slabs — per-record
// allocations are amortized to a handful per column. Decoded records may
// therefore share backing arrays; like every dataset partition they must be
// treated as immutable (in-place writes stay record-local because slab
// regions are disjoint, but appends must copy).
package colfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"github.com/gpf-go/gpf/internal/bufpool"
	"github.com/gpf-go/gpf/internal/compress"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
)

// Field bits of the columnar layout, in column order. The values double as
// engine.FieldMask bits: a read declaration (engine.ReadsOnly) is built by
// OR-ing these.
const (
	FieldName engine.FieldMask = 1 << iota
	FieldFlag
	FieldCoord // RefID + Pos
	FieldMapQ
	FieldCigar
	FieldMate // MateRef + MatePos + TempLen
	FieldSeq
	FieldQual
	FieldTags

	numFields = 9
)

// AllFields selects every column of the v1 layout.
const AllFields = engine.FieldMask(1<<numFields) - 1

const (
	colMagic0  = 'G'
	colMagic1  = 'c'
	colVersion = 1

	qualModeHuffman = 0
	qualModeRaw     = 1
)

// Codec is the columnar serializer for []sam.Record partitions. The zero
// value encodes and decodes every column; Project returns a view that decodes
// only the masked columns (pruned fields come back as zero values). Codec is
// stateless and safe for concurrent use.
type Codec struct {
	mask    engine.FieldMask
	projSet bool
}

// Name identifies the codec in metrics.
func (Codec) Name() string { return "columnar" }

// Project returns a codec decoding only the columns in mask, intersected
// with any projection already applied.
func (c Codec) Project(mask engine.FieldMask) engine.Serializer[sam.Record] {
	return Codec{mask: c.effMask() & mask, projSet: true}
}

// effMask returns the columns this codec decodes.
func (c Codec) effMask() engine.FieldMask {
	if c.projSet {
		return c.mask
	}
	return AllFields
}

// Marshal encodes recs as one columnar block carrying every column, whatever
// Project said: a projection narrows a decode, never what is written.
func (Codec) Marshal(recs []sam.Record) ([]byte, error) {
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	var tmp [binary.MaxVarintLen64]byte
	buf.Write([]byte{colMagic0, colMagic1, colVersion})
	buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(recs)))])
	buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(AllFields))]) // present mask
	for bit := 0; bit < numFields; bit++ {
		col, err := encodeColumn(bit, recs)
		if err != nil {
			return nil, fmt.Errorf("colfmt: column %d: %w", bit, err)
		}
		buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(col)))])
		buf.Write(col)
	}
	return bufpool.Bytes(buf), nil
}

// encodeColumn dispatches one column to its encoder.
func encodeColumn(bit int, recs []sam.Record) ([]byte, error) {
	switch engine.FieldMask(1) << bit {
	case FieldName:
		return encNameCol(recs), nil
	case FieldFlag:
		return encFlagCol(recs), nil
	case FieldCoord:
		return encCoordCol(recs), nil
	case FieldMapQ:
		return encMapQCol(recs), nil
	case FieldCigar:
		return encCigarCol(recs), nil
	case FieldMate:
		return encMateCol(recs), nil
	case FieldSeq:
		return encSeqCol(recs), nil
	case FieldQual:
		return encQualCol(recs)
	case FieldTags:
		return encTagsCol(recs), nil
	}
	return nil, fmt.Errorf("unknown column bit %d", bit)
}

// Unmarshal decodes a block, materializing only the projected columns.
func (c Codec) Unmarshal(data []byte) ([]sam.Record, error) {
	recs, _, err := c.UnmarshalStats(data)
	return recs, err
}

// UnmarshalStats is Unmarshal with byte accounting: decoded covers the
// header, framing and materialized columns; pruned covers columns the
// projection mask skipped. A block may carry any subset of the columns (its
// present mask); absent columns decode as zero values.
func (c Codec) UnmarshalStats(data []byte) ([]sam.Record, engine.DecodeStats, error) {
	var st engine.DecodeStats
	orig := int64(len(data))
	if len(data) < 3 || data[0] != colMagic0 || data[1] != colMagic1 {
		return nil, st, fmt.Errorf("colfmt: bad magic")
	}
	if data[2] != colVersion {
		return nil, st, fmt.Errorf("colfmt: unsupported version %d", data[2])
	}
	rest := data[3:]
	count, rest, err := getUvarint(rest)
	if err != nil {
		return nil, st, fmt.Errorf("colfmt: record count: %w", err)
	}
	present, rest, err := getUvarint(rest)
	if err != nil {
		return nil, st, fmt.Errorf("colfmt: present mask: %w", err)
	}
	if engine.FieldMask(present)&^AllFields != 0 {
		return nil, st, fmt.Errorf("colfmt: unsupported present mask %#x", present)
	}
	// A flag column costs one byte per record, so when present a count
	// exceeding the block length is corrupt — the general guard below rejects
	// before allocating.
	if count > uint64(len(data)) {
		return nil, st, fmt.Errorf("colfmt: record count %d exceeds block size %d", count, len(data))
	}
	mask := c.effMask()
	recs := make([]sam.Record, count)
	for bit := 0; bit < numFields; bit++ {
		if engine.FieldMask(present)&(1<<bit) == 0 {
			continue
		}
		colLen, r2, err := getUvarint(rest)
		if err != nil {
			return nil, st, fmt.Errorf("colfmt: column %d length: %w", bit, err)
		}
		rest = r2
		if colLen > uint64(len(rest)) {
			return nil, st, fmt.Errorf("colfmt: column %d overruns block: %d > %d", bit, colLen, len(rest))
		}
		col := rest[:colLen]
		rest = rest[colLen:]
		if mask&(1<<bit) == 0 {
			st.PrunedBytes += int64(colLen)
			continue
		}
		if err := decodeColumn(bit, col, recs); err != nil {
			return nil, st, fmt.Errorf("colfmt: column %d: %w", bit, err)
		}
	}
	if len(rest) != 0 {
		return nil, st, fmt.Errorf("colfmt: %d trailing bytes after columns", len(rest))
	}
	st.DecodedBytes = orig - st.PrunedBytes
	return recs, st, nil
}

// decodeColumn dispatches one column payload to its decoder.
func decodeColumn(bit int, col []byte, recs []sam.Record) error {
	switch engine.FieldMask(1) << bit {
	case FieldName:
		return decNameCol(col, recs)
	case FieldFlag:
		return decFlagCol(col, recs)
	case FieldCoord:
		return decCoordCol(col, recs)
	case FieldMapQ:
		return decMapQCol(col, recs)
	case FieldCigar:
		return decCigarCol(col, recs)
	case FieldMate:
		return decMateCol(col, recs)
	case FieldSeq:
		return decSeqCol(col, recs)
	case FieldQual:
		return decQualCol(col, recs)
	case FieldTags:
		return decTagsCol(col, recs)
	}
	return fmt.Errorf("unknown column bit %d", bit)
}

// getUvarint reads one uvarint off b.
func getUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated uvarint")
	}
	return v, b[n:], nil
}

// getVarint reads one zigzag varint off b.
func getVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated varint")
	}
	return v, b[n:], nil
}

// readLengths decodes count per-record uvarint lengths from col, returning
// the lengths, their sum, and the remaining payload. maxTotal caps the sum —
// a corruption guard sized by the caller to the column's densest legal
// packing (4 bases/byte for 2-bit seq, up to 8 symbols/byte for Huffman
// qual) so a corrupt length cannot trigger a huge slab allocation; exact
// consistency is still verified by the column decoders afterwards.
func readLengths(col []byte, count, maxTotal int) ([]int, int, []byte, error) {
	lens := make([]int, count)
	total := 0
	for i := 0; i < count; i++ {
		v, rest, err := getUvarint(col)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("length %d: %w", i, err)
		}
		col = rest
		lens[i] = int(v)
		total += int(v)
		if v > uint64(maxTotal) || total > maxTotal {
			return nil, 0, nil, fmt.Errorf("lengths through %d sum to %d, exceeding column bound %d", i, total, maxTotal)
		}
	}
	return lens, total, col, nil
}

// --- name column ---

func encNameCol(recs []sam.Record) []byte {
	var dst []byte
	for i := range recs {
		dst = binary.AppendUvarint(dst, uint64(len(recs[i].Name)))
	}
	for i := range recs {
		dst = append(dst, recs[i].Name...)
	}
	return dst
}

func decNameCol(col []byte, recs []sam.Record) error {
	lens, total, blob, err := readLengths(col, len(recs), len(col))
	if err != nil {
		return err
	}
	if len(blob) != total {
		return fmt.Errorf("name bytes: have %d, lengths sum to %d", len(blob), total)
	}
	arena := string(blob)
	pos := 0
	for i, l := range lens {
		recs[i].Name = arena[pos : pos+l]
		pos += l
	}
	return nil
}

// --- flag column ---

func encFlagCol(recs []sam.Record) []byte {
	var dst []byte
	for i := range recs {
		dst = binary.AppendUvarint(dst, uint64(recs[i].Flag))
	}
	return dst
}

func decFlagCol(col []byte, recs []sam.Record) error {
	for i := range recs {
		v, rest, err := getUvarint(col)
		if err != nil {
			return fmt.Errorf("flag %d: %w", i, err)
		}
		if v > 0xffff {
			return fmt.Errorf("flag %d = %d out of range", i, v)
		}
		col = rest
		recs[i].Flag = uint16(v)
	}
	if len(col) != 0 {
		return fmt.Errorf("%d trailing flag bytes", len(col))
	}
	return nil
}

// --- coord column (RefID + Pos, deltas from the previous record) ---

func encCoordCol(recs []sam.Record) []byte {
	var dst []byte
	var prevRef, prevPos int64
	for i := range recs {
		dst = binary.AppendVarint(dst, int64(recs[i].RefID)-prevRef)
		dst = binary.AppendVarint(dst, int64(recs[i].Pos)-prevPos)
		prevRef, prevPos = int64(recs[i].RefID), int64(recs[i].Pos)
	}
	return dst
}

func decCoordCol(col []byte, recs []sam.Record) error {
	var prevRef, prevPos int64
	for i := range recs {
		dr, rest, err := getVarint(col)
		if err != nil {
			return fmt.Errorf("refid %d: %w", i, err)
		}
		dp, rest, err := getVarint(rest)
		if err != nil {
			return fmt.Errorf("pos %d: %w", i, err)
		}
		col = rest
		prevRef += dr
		prevPos += dp
		recs[i].RefID = int32(prevRef)
		recs[i].Pos = int32(prevPos)
	}
	if len(col) != 0 {
		return fmt.Errorf("%d trailing coord bytes", len(col))
	}
	return nil
}

// --- mapq column ---

func encMapQCol(recs []sam.Record) []byte {
	dst := make([]byte, len(recs))
	for i := range recs {
		dst[i] = recs[i].MapQ
	}
	return dst
}

func decMapQCol(col []byte, recs []sam.Record) error {
	if len(col) != len(recs) {
		return fmt.Errorf("mapq bytes: have %d, want %d", len(col), len(recs))
	}
	for i := range recs {
		recs[i].MapQ = col[i]
	}
	return nil
}

// --- cigar column ---

func encCigarCol(recs []sam.Record) []byte {
	var dst []byte
	for i := range recs {
		dst = binary.AppendUvarint(dst, uint64(len(recs[i].Cigar)))
	}
	for i := range recs {
		for _, op := range recs[i].Cigar {
			dst = binary.AppendUvarint(dst, uint64(op.Len))
			dst = append(dst, op.Op)
		}
	}
	return dst
}

func decCigarCol(col []byte, recs []sam.Record) error {
	nops, totalOps, ops, err := readLengths(col, len(recs), len(col))
	if err != nil {
		return err
	}
	slab := make(sam.Cigar, totalOps)
	for j := range slab {
		l, rest, err := getUvarint(ops)
		if err != nil {
			return fmt.Errorf("op %d length: %w", j, err)
		}
		if l > 1<<31 {
			return fmt.Errorf("op %d length %d out of range", j, l)
		}
		if len(rest) == 0 {
			return fmt.Errorf("op %d missing op byte", j)
		}
		slab[j] = sam.CigarOp{Len: int(l), Op: rest[0]}
		ops = rest[1:]
	}
	if len(ops) != 0 {
		return fmt.Errorf("%d trailing cigar bytes", len(ops))
	}
	pos := 0
	for i, n := range nops {
		if n > 0 {
			recs[i].Cigar = slab[pos : pos+n : pos+n]
		}
		pos += n
	}
	return nil
}

// --- mate column (MateRef + MatePos deltas, TempLen raw zigzag) ---

func encMateCol(recs []sam.Record) []byte {
	var dst []byte
	var prevRef, prevPos int64
	for i := range recs {
		dst = binary.AppendVarint(dst, int64(recs[i].MateRef)-prevRef)
		dst = binary.AppendVarint(dst, int64(recs[i].MatePos)-prevPos)
		dst = binary.AppendVarint(dst, int64(recs[i].TempLen))
		prevRef, prevPos = int64(recs[i].MateRef), int64(recs[i].MatePos)
	}
	return dst
}

func decMateCol(col []byte, recs []sam.Record) error {
	var prevRef, prevPos int64
	for i := range recs {
		dr, rest, err := getVarint(col)
		if err != nil {
			return fmt.Errorf("materef %d: %w", i, err)
		}
		dp, rest, err := getVarint(rest)
		if err != nil {
			return fmt.Errorf("matepos %d: %w", i, err)
		}
		tl, rest, err := getVarint(rest)
		if err != nil {
			return fmt.Errorf("templen %d: %w", i, err)
		}
		col = rest
		prevRef += dr
		prevPos += dp
		recs[i].MateRef = int32(prevRef)
		recs[i].MatePos = int32(prevPos)
		recs[i].TempLen = int32(tl)
	}
	if len(col) != 0 {
		return fmt.Errorf("%d trailing mate bytes", len(col))
	}
	return nil
}

// --- seq column ---

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

func encSeqCol(recs []sam.Record) []byte {
	total := 0
	for i := range recs {
		total += len(recs[i].Seq)
	}
	// Lengths (two bytes cover a 16 kb read), the exception count, a quarter
	// byte per base rounded up per record; exceptions grow it if there are any.
	dst := make([]byte, 0, 3*len(recs)+binary.MaxVarintLen64+total/4)
	for i := range recs {
		dst = binary.AppendUvarint(dst, uint64(len(recs[i].Seq)))
	}
	// Exceptions: global base index (cumulative across the concatenated
	// sequences) and original byte.
	var excIdx []int
	var excByte []byte
	gi := 0
	for i := range recs {
		for j, b := range recs[i].Seq {
			if seqException[b] {
				excIdx = append(excIdx, gi+j)
				excByte = append(excByte, b)
			}
		}
		gi += len(recs[i].Seq)
	}
	dst = binary.AppendUvarint(dst, uint64(len(excIdx)))
	prev := 0
	for j, idx := range excIdx {
		dst = binary.AppendUvarint(dst, uint64(idx-prev))
		dst = append(dst, excByte[j])
		prev = idx
	}
	for i := range recs {
		dst = compress.Pack2Bit(dst, recs[i].Seq)
	}
	return dst
}

func decSeqCol(col []byte, recs []sam.Record) error {
	lens, total, rest, err := readLengths(col, len(recs), 4*len(col))
	if err != nil {
		return err
	}
	nExc, rest, err := getUvarint(rest)
	if err != nil {
		return fmt.Errorf("exception count: %w", err)
	}
	if nExc > uint64(len(rest)) {
		return fmt.Errorf("exception count %d exceeds column size %d", nExc, len(rest))
	}
	excIdx := make([]int, nExc)
	excByte := make([]byte, nExc)
	prev := 0
	for j := range excIdx {
		gap, r2, err := getUvarint(rest)
		if err != nil {
			return fmt.Errorf("exception %d gap: %w", j, err)
		}
		if len(r2) == 0 {
			return fmt.Errorf("exception %d missing byte", j)
		}
		idx := prev + int(gap)
		if idx < 0 || idx >= total {
			return fmt.Errorf("exception %d index %d out of range [0,%d)", j, idx, total)
		}
		excIdx[j] = idx
		excByte[j] = r2[0]
		rest = r2[1:]
		prev = idx
	}
	slab := make([]byte, total)
	pos := 0
	for i, l := range lens {
		consumed, err := compress.Unpack2Bit(slab[pos:pos+l], rest)
		if err != nil {
			return fmt.Errorf("seq %d: %w", i, err)
		}
		rest = rest[consumed:]
		if l > 0 {
			recs[i].Seq = slab[pos : pos+l : pos+l]
		}
		pos += l
	}
	if len(rest) != 0 {
		return fmt.Errorf("%d trailing seq bytes", len(rest))
	}
	for j, idx := range excIdx {
		slab[idx] = excByte[j]
	}
	return nil
}

// --- qual column ---

func encQualCol(recs []sam.Record) ([]byte, error) {
	quals := make([][]byte, len(recs))
	total := 0
	for i := range recs {
		quals[i] = recs[i].Qual
		total += len(recs[i].Qual)
	}
	// The Huffman-delta coder covers quality bytes 0..126 (the legal FASTQ
	// range plus the N marker) under histograms whose code fits 31 bits;
	// anything else selects the raw fallback.
	mode := byte(qualModeHuffman)
	block, err := compress.EncodeQualBlock(quals)
	if errors.Is(err, compress.ErrQualUncodable) {
		mode = qualModeRaw
	} else if err != nil {
		return nil, err
	}
	payload := len(block)
	if mode == qualModeRaw {
		payload = total
	}
	dst := make([]byte, 0, 1+3*len(recs)+payload)
	dst = append(dst, mode)
	for i := range recs {
		dst = binary.AppendUvarint(dst, uint64(len(recs[i].Qual)))
	}
	if mode == qualModeRaw {
		for i := range recs {
			dst = append(dst, recs[i].Qual...)
		}
		return dst, nil
	}
	return append(dst, block...), nil
}

func decQualCol(col []byte, recs []sam.Record) error {
	if len(col) == 0 {
		return fmt.Errorf("missing qual mode byte")
	}
	mode := col[0]
	lens, total, payload, err := readLengths(col[1:], len(recs), 8*len(col))
	if err != nil {
		return err
	}
	switch mode {
	case qualModeRaw:
		if len(payload) != total {
			return fmt.Errorf("raw qual bytes: have %d, lengths sum to %d", len(payload), total)
		}
		slab := make([]byte, total)
		copy(slab, payload)
		pos := 0
		for i, l := range lens {
			if l > 0 {
				recs[i].Qual = slab[pos : pos+l : pos+l]
			}
			pos += l
		}
		return nil
	case qualModeHuffman:
		quals, err := compress.DecodeQualBlock(payload, lens)
		if err != nil {
			return err
		}
		for i, q := range quals {
			if len(q) > 0 {
				recs[i].Qual = q
			}
		}
		return nil
	}
	return fmt.Errorf("unknown qual mode %d", mode)
}

// --- tags column ---

func encTagsCol(recs []sam.Record) []byte {
	var dst []byte
	var blob []byte
	var keys []string
	for i := range recs {
		tags := recs[i].Tags
		dst = binary.AppendUvarint(dst, uint64(len(tags)))
		if len(tags) == 0 {
			continue
		}
		keys = keys[:0]
		for k := range tags {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v := tags[k]
			dst = binary.AppendUvarint(dst, uint64(len(k)))
			dst = binary.AppendUvarint(dst, uint64(len(v)))
			blob = append(blob, k...)
			blob = append(blob, v...)
		}
	}
	return append(dst, blob...)
}

func decTagsCol(col []byte, recs []sam.Record) error {
	counts := make([]int, len(recs))
	var pieceLens []int
	total := 0
	for i := range recs {
		n, rest, err := getUvarint(col)
		if err != nil {
			return fmt.Errorf("tag count %d: %w", i, err)
		}
		if n > uint64(len(rest)) {
			return fmt.Errorf("tag count %d = %d exceeds column size %d", i, n, len(rest))
		}
		col = rest
		counts[i] = int(n)
		for j := 0; j < int(n); j++ {
			kl, rest, err := getUvarint(col)
			if err != nil {
				return fmt.Errorf("record %d tag %d klen: %w", i, j, err)
			}
			vl, rest, err := getUvarint(rest)
			if err != nil {
				return fmt.Errorf("record %d tag %d vlen: %w", i, j, err)
			}
			if kl > uint64(len(col)) || vl > uint64(len(col)) {
				return fmt.Errorf("record %d tag %d lengths out of range", i, j)
			}
			col = rest
			pieceLens = append(pieceLens, int(kl), int(vl))
			total += int(kl) + int(vl)
		}
	}
	if len(col) != total {
		return fmt.Errorf("tag bytes: have %d, lengths sum to %d", len(col), total)
	}
	arena := string(col)
	pos, piece := 0, 0
	for i, n := range counts {
		if n == 0 {
			continue
		}
		m := make(map[string]string, n)
		for j := 0; j < n; j++ {
			kl, vl := pieceLens[piece], pieceLens[piece+1]
			piece += 2
			k := arena[pos : pos+kl]
			v := arena[pos+kl : pos+kl+vl]
			pos += kl + vl
			m[k] = v
		}
		recs[i].Tags = m
	}
	return nil
}
