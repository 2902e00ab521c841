package core

import (
	"fmt"

	"github.com/gpf-go/gpf/internal/colfmt"
	"github.com/gpf-go/gpf/internal/compress"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
)

// Bundle is one position-partition of the pipeline's working set: the SAM
// records of one genomic partition, with the partition's interval — the
// "Partition Bundle RDD" of Fig 7. It carries no reference slice and no known
// variants: every kernel a partition Process runs reads rt.Ref and rt.Known,
// which every process already holds whole (a Spark broadcast's role), and
// BaseRecalibration groups rt.Known by partition itself.
type Bundle struct {
	Interval genome.Interval // the partition's interval
	Sams     []sam.Record
}

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

// buildBundles performs the partition operation of Fig 7a: groupBy final
// partition ID on the SAM records (one shuffle), then wrap each partition's
// records with its interval from info into the bundle dataset.
func buildBundles(rt *Runtime, name string, flat *engine.Dataset[sam.Record], info *PartitionInfo) (*engine.Dataset[Bundle], error) {
	n := info.NumPartitions()
	if n == 0 {
		return nil, fmt.Errorf("core: partition info has no partitions")
	}

	// Re-attaching the codec a flatten already carries would fork its lazy
	// plan: the shuffle would force the fork, the flatten on the resource
	// would stay lazy, and a later reader of the resource would run the
	// chain again.
	if flat.Codec() != rt.SAMCodec() {
		flat = engine.WithCodec(flat, rt.SAMCodec())
	}
	samPart, err := engine.PartitionBy(name+"/sam-partition", flat, n,
		func(r sam.Record) int {
			if r.RefID < 0 {
				return 0
			}
			return info.FinalID(int(r.RefID), int(r.Pos))
		})
	if err != nil {
		return nil, err
	}
	return engine.MapPartitions(name+"/bundle", samPart, nil,
		func(p int, sams []sam.Record) ([]Bundle, error) {
			iv, _ := info.Interval(p)
			return []Bundle{{Interval: iv, Sams: sams}}, nil
		})
}

// EnsureFlat returns the flat record dataset of a SAM bundle. A bundle
// holding only the bundled form gets a lazy flatten recorded on first use
// (the "merge into a SAM RDD" of Fig 7a); it runs when a reader forces it. A
// released bundle returns the release error.
func (b *SAMBundle) EnsureFlat(rt *Runtime) (*engine.Dataset[sam.Record], error) {
	if err := b.released(); err != nil {
		return nil, err
	}
	if b.Data != nil {
		return b.Data, nil
	}
	if b.Bundled == nil {
		return nil, fmt.Errorf("core: SAM bundle %q holds no data", b.ResourceName())
	}
	flat, err := engine.MapPartitions(b.ResourceName()+"/flatten", b.Bundled, rt.SAMCodec(),
		func(_ int, bs []Bundle) ([]sam.Record, error) {
			var out []sam.Record
			for i := range bs {
				out = append(out, bs[i].Sams...)
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	b.Data = flat
	return flat, nil
}
