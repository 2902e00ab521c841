package core

import (
	"fmt"

	"github.com/gpf-go/gpf/internal/colfmt"
	"github.com/gpf-go/gpf/internal/compress"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/sam"
)

// CodecTier selects the serializer family used throughout a pipeline.
type CodecTier int

// Serializer tiers, from genomic-aware to generic (§4.2's comparison).
const (
	TierGPF   CodecTier = iota // GPF genomic codec (2-bit + delta/Huffman)
	TierField                  // fast binary field codec (Kryo-like)
	TierGob                    // generic reflective codec (Java-like)
)

// String names the tier.
func (t CodecTier) String() string {
	switch t {
	case TierField:
		return "field"
	case TierGob:
		return "gob"
	default:
		return "gpf"
	}
}

// SAMCodec returns the tier's SAM serializer (nil selects the engine's gob
// fallback). The GPF tier is the columnar codec: per-field blocks with
// projection pushdown (colfmt), whose seq and qual columns are compress's
// 2-bit and Figs 5-6 delta-Huffman coders; it is the one genomic SAM codec,
// on both sides of the §4.2 codec-tier comparisons (Table 3). TierField is
// the row side those and the columnar tests compare against.
func (t CodecTier) SAMCodec() engine.Serializer[sam.Record] {
	switch t {
	case TierGPF:
		return colfmt.Codec{}
	case TierField:
		return compress.FieldSAMCodec{}
	default:
		return nil
	}
}

// SAMCodec returns the SAM serializer for the runtime's tier.
func (rt *Runtime) SAMCodec() engine.Serializer[sam.Record] { return rt.Codec.SAMCodec() }

// partitionSAM performs the partition operation of Fig 7a: one shuffle of
// the SAM records by final partition ID, so partition p of the result holds
// the records of info.Interval(p).
func partitionSAM(rt *Runtime, name string, flat *engine.Dataset[sam.Record], info *PartitionInfo) (*engine.Dataset[sam.Record], error) {
	n := info.NumPartitions()
	if n == 0 {
		return nil, fmt.Errorf("core: partition info has no partitions")
	}
	return engine.PartitionBy(name+"/sam-partition", engine.WithCodec(flat, rt.SAMCodec()), n,
		func(r sam.Record) int {
			if r.RefID < 0 {
				return 0
			}
			return info.FinalID(int(r.RefID), int(r.Pos))
		})
}

// EnsureFlat returns the record dataset of a SAM bundle, whether or not it
// is position-partitioned. A released bundle returns the release error.
func (b *SAMBundle) EnsureFlat(_ *Runtime) (*engine.Dataset[sam.Record], error) {
	return b.dataset()
}
