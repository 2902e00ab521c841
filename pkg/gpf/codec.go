package gpf

import (
	"github.com/gpf-go/gpf/internal/colfmt"
	"github.com/gpf-go/gpf/internal/compress"
)

// Genomic codecs (§4.2 of the paper): partition-level serializers that store
// sequences in 2-bit codes with an exception list restoring every other byte,
// and qualities as Huffman-coded adjacent deltas (raw when a batch cannot be
// coded). Both are lossless.
type (
	// GPFPairCodec serializes FASTQ pairs with the genomic codec.
	GPFPairCodec = compress.GPFPairCodec
	// GPFSAMCodec serializes SAM records with the genomic codec: the
	// columnar block format the pipeline's TierGPF ships, one column per
	// field, 2-bit sequences and delta-Huffman qualities.
	GPFSAMCodec = colfmt.Codec
	// FieldPairCodec is the fast binary comparator without genomic modeling.
	FieldPairCodec = compress.FieldPairCodec
	// FieldSAMCodec is the fast binary comparator for SAM records.
	FieldSAMCodec = compress.FieldSAMCodec
)

// Sequence/quality block codec entry points for applications that store
// read data outside the engine.
var (
	// EncodeSeqQualBlock compresses parallel sequence/quality batches into
	// one byte block: the seq and qual columns GPFSAMCodec stores.
	EncodeSeqQualBlock = compress.EncodeSeqQualBlock
	// DecodeSeqQualBlock inverts EncodeSeqQualBlock.
	DecodeSeqQualBlock = compress.DecodeSeqQualBlock
	// CompressionRatio reports original/compressed size.
	CompressionRatio = compress.Ratio
)
