package experiments

import (
	"fmt"

	"github.com/gpf-go/gpf/internal/compress"
	"github.com/gpf-go/gpf/internal/core"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/workload"
)

// Table3Row is one line of Table 3: a pipeline stage's shuffled data volume
// with generic serialization versus the GPF genomic codec.
type Table3Row struct {
	StageID      int
	Description  string
	OriginGB     float64
	CompressedGB float64
	Ratio        float64
}

// Table3Result reproduces Table 3 ("Efficient compression of genomic data").
type Table3Result struct {
	Rows []Table3Row
}

// Table3 runs the pipeline far enough to materialize the three measured
// stages — FASTQ load, SAM segmentation, bundle generation — and encodes
// each stage's records through both serializer tiers.
func Table3(s Scale) (*Table3Result, error) {
	d := s.dataset(workload.WGS)
	rt := s.newRuntime(engine.NewContext(s.Workers), d)
	_, byteScale := calibration(d)
	toGB := func(bytes int) float64 { return float64(bytes) * byteScale / 1e9 }

	res := &Table3Result{}

	// Stage 1: Load FASTQ.
	origin, err := compress.FieldPairCodec{}.Marshal(d.Pairs)
	if err != nil {
		return nil, err
	}
	compressed, err := compress.GPFPairCodec{}.Marshal(d.Pairs)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Table3Row{
		StageID: 1, Description: "Load FASTQ",
		OriginGB: toGB(len(origin)), CompressedGB: toGB(len(compressed)),
		Ratio: compress.Ratio(len(origin), len(compressed)),
	})

	// Stage 5: Segment SAM — align and take the shuffled record form.
	records, err := alignAll(rt, d.Pairs)
	if err != nil {
		return nil, err
	}
	// The two SAM codec tiers the pipeline can ship: TierField against
	// TierGPF, the columnar codec.
	samOrigin, err := core.TierField.SAMCodec().Marshal(records)
	if err != nil {
		return nil, err
	}
	samCompressed, err := core.TierGPF.SAMCodec().Marshal(records)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Table3Row{
		StageID: 5, Description: "Segment SAM",
		OriginGB: toGB(len(samOrigin)), CompressedGB: toGB(len(samCompressed)),
		Ratio: compress.Ratio(len(samOrigin), len(samCompressed)),
	})

	// Stage 20: Generate Bundle RDD — SAM plus the FASTA and VCF partition
	// payloads that ride along in the paper's bundle (uncompressed fields,
	// §5.2.4: "the compression rate is slightly lower" there). The row models
	// that bundle by formula, FASTA and known VCF included; this repo's
	// partitioned SAM dataset carries only the records.
	info, err := core.NewPartitionInfo(rt.Ref.Lengths(), rt.PartitionLen)
	if err != nil {
		return nil, err
	}
	fastaBytes := 0
	for p := 0; p < info.NumPartitions(); p++ {
		if iv, ok := info.Interval(p); ok {
			fastaBytes += iv.Len() + 600
		}
	}
	vcfBytes := 0
	for _, v := range d.Known {
		vcfBytes += len(v.Chrom) + len(v.Ref) + len(v.Alt) + 16
	}
	bundleOrigin := len(samOrigin) + fastaBytes + vcfBytes
	bundleCompressed := len(samCompressed) + fastaBytes/4 + vcfBytes
	res.Rows = append(res.Rows, Table3Row{
		StageID: 20, Description: "Generate Bundle RDD",
		OriginGB: toGB(bundleOrigin), CompressedGB: toGB(bundleCompressed),
		Ratio: compress.Ratio(bundleOrigin, bundleCompressed),
	})
	return res, nil
}

// Format renders the table in the paper's layout.
func (r *Table3Result) Format() []string {
	out := []string{row("Table 3: stage", "Origin", "Compressed", "Ratio")}
	for _, rw := range r.Rows {
		out = append(out, row(
			fmt.Sprintf("%d %s", rw.StageID, rw.Description),
			fmt.Sprintf("%6.1fGB", rw.OriginGB),
			fmt.Sprintf("%9.1fGB", rw.CompressedGB),
			fmt.Sprintf("%5.2fx", rw.Ratio),
		))
	}
	return out
}
