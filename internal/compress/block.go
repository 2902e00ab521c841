// Package compress implements GPF's genomic data compression (§4.2 of the
// paper) in one format: a seq column of 2-bit packed bases with a lossless
// exception list for every other byte (sequence.go), and a qual column of
// delta+Huffman coded qualities with an EOF symbol (Figs 5-6, quality.go),
// stored raw when the coder cannot represent a batch. colfmt stores SAM
// records' bases and qualities in these columns; EncodeSeqQualBlock frames
// the same two columns for FASTQ pairs (GPFPairCodec) and standalone use.
// Partition-level codecs store whole record batches as single byte arrays —
// the serialized in-memory representation the GPF engine keeps resident and
// shuffles between workers.
//
// A field codec without genomic modeling (standing in for Kryo) is the
// paper's comparator; the engine's gob fallback stands in for Java
// serialization.
package compress

import (
	"encoding/binary"
	"fmt"
)

// ReadLengths decodes count per-record uvarint lengths from col, returning
// the lengths, their sum, and the remaining payload. maxTotal caps the sum —
// a corruption guard sized by the caller to the column's densest legal
// packing (4 bases/byte for 2-bit seq, up to 8 symbols/byte for Huffman
// qual) so a corrupt length cannot trigger a huge slab allocation; exact
// consistency is still verified by the column decoders afterwards.
func ReadLengths(col []byte, count, maxTotal int) ([]int, int, []byte, error) {
	// Every length takes at least one byte.
	if count > len(col) {
		return nil, 0, nil, fmt.Errorf("compress: %d lengths in a %d-byte column", count, len(col))
	}
	lens := make([]int, count)
	total := 0
	for i := 0; i < count; i++ {
		v, k := binary.Uvarint(col)
		if k <= 0 {
			return nil, 0, nil, fmt.Errorf("compress: truncated length %d", i)
		}
		col = col[k:]
		lens[i] = int(v)
		total += int(v)
		if v > uint64(maxTotal) || total > maxTotal {
			return nil, 0, nil, fmt.Errorf("compress: lengths through %d sum to %d, exceeding column bound %d", i, total, maxTotal)
		}
	}
	return lens, total, col, nil
}

// EncodeSeqQualBlock compresses parallel batches of sequences and quality
// strings into one byte block — the serialized form of a partition's
// seq/qual columns. Layout:
//
//	uvarint recordCount
//	uvarint seq column length, then the seq column (AppendSeqColumn)
//	the qual column (AppendQualColumn)
//
// Any bytes round-trip exactly, sequences and qualities of unequal length
// included.
func EncodeSeqQualBlock(seqs, quals [][]byte) ([]byte, error) {
	if len(seqs) != len(quals) {
		return nil, fmt.Errorf("compress: %d seqs but %d quals", len(seqs), len(quals))
	}
	n := len(seqs)
	seqCol := AppendSeqColumn(nil, n, func(i int) []byte { return seqs[i] })
	out := binary.AppendUvarint(nil, uint64(n))
	out = binary.AppendUvarint(out, uint64(len(seqCol)))
	out = append(out, seqCol...)
	return AppendQualColumn(out, n, func(i int) []byte { return quals[i] })
}

// DecodeSeqQualBlock inverts EncodeSeqQualBlock. Empty sequences and
// qualities come back nil.
func DecodeSeqQualBlock(data []byte) (seqs, quals [][]byte, err error) {
	count, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, nil, fmt.Errorf("compress: bad block count header")
	}
	data = data[k:]
	// Every record takes at least one length byte in each column.
	if count > uint64(len(data)) {
		return nil, nil, fmt.Errorf("compress: block count %d exceeds payload", count)
	}
	seqLen, k := binary.Uvarint(data)
	if k <= 0 || seqLen > uint64(len(data)-k) {
		return nil, nil, fmt.Errorf("compress: bad seq column length")
	}
	seqCol, qualCol := data[k:k+int(seqLen)], data[k+int(seqLen):]
	n := int(count)
	seqs, quals = make([][]byte, n), make([][]byte, n)
	if err := DecodeSeqColumn(seqCol, n, func(i int, s []byte) { seqs[i] = s }); err != nil {
		return nil, nil, err
	}
	if err := DecodeQualColumn(qualCol, n, func(i int, q []byte) { quals[i] = q }); err != nil {
		return nil, nil, err
	}
	return seqs, quals, nil
}

// Ratio reports original/compressed size for accounting; returns 0 when the
// compressed size is 0.
func Ratio(originalBytes, compressedBytes int) float64 {
	if compressedBytes == 0 {
		return 0
	}
	return float64(originalBytes) / float64(compressedBytes)
}
