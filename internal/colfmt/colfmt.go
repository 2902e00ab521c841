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
//	seq    compress.AppendSeqColumn: 2-bit packed bases with an exception
//	       list restoring every other byte
//	qual   compress.AppendQualColumn: delta-Huffman qualities, raw when the
//	       coder cannot represent the batch
//	tags   per-record uvarint tag counts with (uvarint klen, uvarint vlen)
//	       pairs, then concatenated key/value bytes in sorted-key order
//
// The batch decoder is arena-backed: names and tag strings are substrings of
// one string allocation per column, cigar ops slice one shared []CigarOp
// slab, and seq/qual bytes decode into shared byte slabs — per-record
// allocations are amortized to a handful per column. Decoded records may
// therefore share backing arrays; like every dataset partition they must be
// treated as immutable (in-place writes stay record-local because slab
// regions are disjoint, but appends must copy).
package colfmt

import (
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/gpf-go/gpf/internal/compress"
	"github.com/gpf-go/gpf/internal/engine"
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
// Project said: a projection narrows a decode, never what is written. The
// columns are encoded first, so the block is allocated once at its exact
// size (cap == len): a stored block holds no spare capacity.
func (Codec) Marshal(recs []sam.Record) ([]byte, error) {
	var cols [numFields][]byte
	size := 3 + uvarintLen(uint64(len(recs))) + uvarintLen(uint64(AllFields))
	for bit := range cols {
		col, err := encodeColumn(bit, recs)
		if err != nil {
			return nil, fmt.Errorf("colfmt: column %d: %w", bit, err)
		}
		cols[bit] = col
		size += uvarintLen(uint64(len(col))) + len(col)
	}
	block := make([]byte, 0, size)
	block = append(block, colMagic0, colMagic1, colVersion)
	block = binary.AppendUvarint(block, uint64(len(recs)))
	block = binary.AppendUvarint(block, uint64(AllFields)) // present mask
	for _, col := range cols {
		block = binary.AppendUvarint(block, uint64(len(col)))
		block = append(block, col...)
	}
	return block, nil
}

// uvarintLen is the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
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
		return compress.AppendSeqColumn(nil, len(recs), func(i int) []byte { return recs[i].Seq }), nil
	case FieldQual:
		return compress.AppendQualColumn(nil, len(recs), func(i int) []byte { return recs[i].Qual })
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
		return compress.DecodeSeqColumn(col, len(recs), func(i int, s []byte) { recs[i].Seq = s })
	case FieldQual:
		return compress.DecodeQualColumn(col, len(recs), func(i int, q []byte) { recs[i].Qual = q })
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
	lens, total, blob, err := compress.ReadLengths(col, len(recs), len(col))
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
	nops, totalOps, ops, err := compress.ReadLengths(col, len(recs), len(col))
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
