package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/sam"
)

// This file provides partition serializers used by the engine to persist
// datasets "in serialized form" (§4.2: GPF stores each RDD partition as one
// large byte array). Two of the paper's three tiers live here:
//
//   - GPF codecs: genomic-aware (the seq and qual columns of block.go).
//     colfmt.Codec is the SAM one.
//   - Field codecs: fast binary field packing without genomic modeling —
//     the stand-in for Kryo.
//
// The third, Go's generic reflective serializer standing in for Java
// serialization, is the engine's own fallback codec, engine.GobCodec.

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readString(data []byte) (string, []byte, error) {
	l, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < l {
		return "", nil, fmt.Errorf("compress: truncated string")
	}
	return string(data[n : n+int(l)]), data[n+int(l):], nil
}

func appendBytes(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func readBytes(data []byte) ([]byte, []byte, error) {
	l, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < l {
		return nil, nil, fmt.Errorf("compress: truncated bytes")
	}
	if l == 0 {
		return nil, data[n:], nil
	}
	out := make([]byte, l)
	copy(out, data[n:n+int(l)])
	return out, data[n+int(l):], nil
}

func readCount(data []byte, perItemMin int) (int, []byte, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("compress: bad record count")
	}
	rest := data[n:]
	if perItemMin < 1 {
		perItemMin = 1
	}
	// A count claiming more records than the remaining bytes could possibly
	// hold marks a corrupted block; reject before allocating.
	if count > uint64(len(rest)/perItemMin)+1 {
		return 0, nil, fmt.Errorf("compress: record count %d exceeds payload", count)
	}
	return int(count), rest, nil
}

// GPFPairCodec serializes FASTQ pairs with the genomic codec, losslessly:
// the seq and qual columns colfmt stores SAM reads in.
type GPFPairCodec struct{}

// Name identifies the codec in metrics output.
func (GPFPairCodec) Name() string { return "gpf" }

// Marshal encodes a batch of pairs: names first, then one seq/qual block
// covering both mates of every pair.
func (GPFPairCodec) Marshal(pairs []fastq.Pair) ([]byte, error) {
	out := binary.AppendUvarint(nil, uint64(len(pairs)))
	seqs := make([][]byte, 0, 2*len(pairs))
	quals := make([][]byte, 0, 2*len(pairs))
	for i := range pairs {
		out = appendString(out, pairs[i].R1.Name)
		out = appendString(out, pairs[i].R2.Name)
		seqs = append(seqs, pairs[i].R1.Seq, pairs[i].R2.Seq)
		quals = append(quals, pairs[i].R1.Qual, pairs[i].R2.Qual)
	}
	block, err := EncodeSeqQualBlock(seqs, quals)
	if err != nil {
		return nil, err
	}
	return append(out, block...), nil
}

// Unmarshal inverts Marshal.
func (GPFPairCodec) Unmarshal(data []byte) ([]fastq.Pair, error) {
	count, data, err := readCount(data, 2)
	if err != nil {
		return nil, err
	}
	pairs := make([]fastq.Pair, count)
	for i := range pairs {
		if pairs[i].R1.Name, data, err = readString(data); err != nil {
			return nil, err
		}
		if pairs[i].R2.Name, data, err = readString(data); err != nil {
			return nil, err
		}
	}
	seqs, quals, err := DecodeSeqQualBlock(data)
	if err != nil {
		return nil, err
	}
	if len(seqs) != int(2*count) {
		return nil, fmt.Errorf("compress: block has %d seqs, want %d", len(seqs), 2*count)
	}
	for i := range pairs {
		pairs[i].R1.Seq, pairs[i].R1.Qual = seqs[2*i], quals[2*i]
		pairs[i].R2.Seq, pairs[i].R2.Qual = seqs[2*i+1], quals[2*i+1]
	}
	return pairs, nil
}

// FieldPairCodec packs pair fields in binary with raw seq/qual bytes.
type FieldPairCodec struct{}

// Name identifies the codec in metrics output.
func (FieldPairCodec) Name() string { return "field" }

// Marshal encodes pairs field by field without genomic compression.
func (FieldPairCodec) Marshal(pairs []fastq.Pair) ([]byte, error) {
	out := binary.AppendUvarint(nil, uint64(len(pairs)))
	for i := range pairs {
		for _, r := range []*fastq.Record{&pairs[i].R1, &pairs[i].R2} {
			out = appendString(out, r.Name)
			out = appendBytes(out, r.Seq)
			out = appendBytes(out, r.Qual)
		}
	}
	return out, nil
}

// Unmarshal inverts Marshal.
func (FieldPairCodec) Unmarshal(data []byte) ([]fastq.Pair, error) {
	count, data, err := readCount(data, 2)
	if err != nil {
		return nil, err
	}
	pairs := make([]fastq.Pair, count)
	for i := range pairs {
		for _, r := range []*fastq.Record{&pairs[i].R1, &pairs[i].R2} {
			if r.Name, data, err = readString(data); err != nil {
				return nil, err
			}
			if r.Seq, data, err = readBytes(data); err != nil {
				return nil, err
			}
			if r.Qual, data, err = readBytes(data); err != nil {
				return nil, err
			}
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("compress: %d trailing bytes after %d pairs", len(data), count)
	}
	return pairs, nil
}

// appendSAMFixed appends the alignment fields of r — everything but Seq and
// Qual — in binary (FieldSAMCodec's record prefix).
func appendSAMFixed(out []byte, r *sam.Record) []byte {
	out = appendString(out, r.Name)
	out = binary.AppendUvarint(out, uint64(r.Flag))
	out = binary.AppendVarint(out, int64(r.RefID))
	out = binary.AppendVarint(out, int64(r.Pos))
	out = append(out, r.MapQ)
	out = binary.AppendUvarint(out, uint64(len(r.Cigar)))
	for _, op := range r.Cigar {
		out = binary.AppendUvarint(out, uint64(op.Len))
		out = append(out, op.Op)
	}
	out = binary.AppendVarint(out, int64(r.MateRef))
	out = binary.AppendVarint(out, int64(r.MatePos))
	out = binary.AppendVarint(out, int64(r.TempLen))
	out = binary.AppendUvarint(out, uint64(len(r.Tags)))
	// Serialize tags in sorted key order: map iteration order is randomized
	// per run, and shuffle blocks must be byte-identical across runs for
	// reproducible replays (gpflint/mapiter enforces this).
	if len(r.Tags) > 0 {
		keys := make([]string, 0, len(r.Tags))
		for k := range r.Tags {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out = appendString(out, k)
			out = appendString(out, r.Tags[k])
		}
	}
	return out
}

// readSAMFixed inverts appendSAMFixed, returning the unread remainder.
func readSAMFixed(data []byte, r *sam.Record) ([]byte, error) {
	var err error
	if r.Name, data, err = readString(data); err != nil {
		return nil, err
	}
	flag, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("compress: bad flag")
	}
	if flag > math.MaxUint16 {
		return nil, fmt.Errorf("compress: flag %#x out of range", flag)
	}
	r.Flag = uint16(flag)
	data = data[n:]
	readI32 := func(field string, dst *int32) error {
		v, n := binary.Varint(data)
		if n <= 0 {
			return fmt.Errorf("compress: truncated %s", field)
		}
		if v != int64(int32(v)) {
			return fmt.Errorf("compress: %s %d out of int32 range", field, v)
		}
		data = data[n:]
		*dst = int32(v)
		return nil
	}
	if err = readI32("RefID", &r.RefID); err != nil {
		return nil, err
	}
	if err = readI32("Pos", &r.Pos); err != nil {
		return nil, err
	}
	if len(data) < 1 {
		return nil, fmt.Errorf("compress: truncated mapq")
	}
	r.MapQ = data[0]
	data = data[1:]
	nOps, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("compress: bad cigar count")
	}
	data = data[n:]
	if nOps > uint64(len(data)) {
		return nil, fmt.Errorf("compress: cigar count %d exceeds payload", nOps)
	}
	if nOps > 0 {
		r.Cigar = make(sam.Cigar, nOps)
		for i := range r.Cigar {
			l, n := binary.Uvarint(data)
			if n <= 0 || len(data) < n+1 {
				return nil, fmt.Errorf("compress: truncated cigar")
			}
			r.Cigar[i] = sam.CigarOp{Len: int(l), Op: data[n]}
			data = data[n+1:]
		}
	} else {
		r.Cigar = nil
	}
	if err = readI32("MateRef", &r.MateRef); err != nil {
		return nil, err
	}
	if err = readI32("MatePos", &r.MatePos); err != nil {
		return nil, err
	}
	if err = readI32("TempLen", &r.TempLen); err != nil {
		return nil, err
	}
	nTags, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("compress: bad tag count")
	}
	data = data[n:]
	// Each tag is two length-prefixed strings (≥ 2 bytes); bound the count by
	// the payload before the map allocation sizes itself from it.
	if nTags > uint64(len(data)) {
		return nil, fmt.Errorf("compress: tag count %d exceeds payload", nTags)
	}
	if nTags > 0 {
		r.Tags = make(map[string]string, nTags)
		for i := uint64(0); i < nTags; i++ {
			var k, val string
			if k, data, err = readString(data); err != nil {
				return nil, err
			}
			if val, data, err = readString(data); err != nil {
				return nil, err
			}
			r.Tags[k] = val
		}
	} else {
		r.Tags = nil
	}
	return data, nil
}

// FieldSAMCodec packs SAM records in binary with raw seq/qual.
type FieldSAMCodec struct{}

// Name identifies the codec in metrics output.
func (FieldSAMCodec) Name() string { return "field" }

// Marshal encodes records field by field without genomic compression.
func (FieldSAMCodec) Marshal(records []sam.Record) ([]byte, error) {
	out := binary.AppendUvarint(nil, uint64(len(records)))
	for i := range records {
		out = appendSAMFixed(out, &records[i])
		out = appendBytes(out, records[i].Seq)
		out = appendBytes(out, records[i].Qual)
	}
	return out, nil
}

// Unmarshal inverts Marshal.
func (FieldSAMCodec) Unmarshal(data []byte) ([]sam.Record, error) {
	count, data, err := readCount(data, 8)
	if err != nil {
		return nil, err
	}
	records := make([]sam.Record, count)
	for i := range records {
		if data, err = readSAMFixed(data, &records[i]); err != nil {
			return nil, fmt.Errorf("compress: record %d: %w", i, err)
		}
		if records[i].Seq, data, err = readBytes(data); err != nil {
			return nil, err
		}
		if records[i].Qual, data, err = readBytes(data); err != nil {
			return nil, err
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("compress: %d trailing bytes after %d records", len(data), count)
	}
	return records, nil
}
