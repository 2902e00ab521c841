package cleaner_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/gpf-go/gpf/internal/align"
	"github.com/gpf-go/gpf/internal/core"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/workload"
)

// TestCleanerGoldenSAM pins the cleaner pipeline's output bytes —
// MarkDuplicate, ReadRepartitioner, IndelRealign and BaseRecalibration over
// the columnar codec, collected and written as SAM text — to the sha256
// computed at the commit before the per-bin BQSR tables, the word-wide
// quality coder, the counting-scatter shuffle buckets, the typed coordinate
// sort and the sorted known-sites mask went in. None of them may move a record,
// a flag, a CIGAR or a quality byte, with partitions held decoded or as
// serialized blocks (where every stage boundary crosses the codec). The hash
// moved once, from 8434139b… to dc292c9b…, by the @HD line alone, when the
// cleaner outputs stopped claiming SO:coordinate: the record lines hash to
// 66bef83e… on both sides.
func TestCleanerGoldenSAM(t *testing.T) {
	const golden = "dc292c9b908775954bca71a1f31d9d27c8d9278b7cba82eee94224dd6e0a09f0"
	p := workload.DefaultProfile(workload.WGS, 30000)
	p.Coverage = 8
	d := workload.Make(p, 2101)
	idx, err := align.BuildFMIndex(d.Ref)
	if err != nil {
		t.Fatal(err)
	}
	aligner := align.NewAligner(idx, align.Config{})
	aligned := make([]sam.Record, 0, 2*len(d.Pairs))
	for i := range d.Pairs {
		r1, r2 := aligner.AlignPair(&d.Pairs[i])
		aligned = append(aligned, r1, r2)
	}
	names := make([]string, d.Ref.NumContigs())
	for i := range names {
		names[i] = d.Ref.Contig(i).Name
	}
	header, err := sam.NewHeader(sam.Unsorted, names, d.Ref.Lengths())
	if err != nil {
		t.Fatal(err)
	}
	for _, serialized := range []bool{false, true} {
		t.Run(fmt.Sprintf("serialized=%v", serialized), func(t *testing.T) {
			got, n := cleanerSAMHash(t, d, header, aligned, serialized)
			if got != golden {
				t.Fatalf("SAM of %d records hashes to %s, want %s", n, got, golden)
			}
		})
	}
}

// cleanerSAMHash runs the four cleaner processes over a copy of aligned and
// returns the sha256 of the recalibrated SAM text with its record count.
func cleanerSAMHash(t *testing.T, d *workload.Dataset, header *sam.Header, aligned []sam.Record, serialized bool) (string, int) {
	t.Helper()
	rt := core.NewRuntime(engine.NewContext(2), d.Ref)
	rt.PartitionLen = 3000
	rt.NumPartitions = 4
	rt.Known = d.Known
	rt.Engine.StoreSerialized = serialized
	recs := append([]sam.Record(nil), aligned...)
	ds := engine.WithCodec(engine.Parallelize(rt.Engine, recs, rt.NumPartitions), rt.SAMCodec())
	in := core.DefinedSAM("inputSam", header, ds)
	pl := core.NewPipeline("cleaner", rt)
	deduped := core.UndefinedSAM("dedupedSam", nil)
	pl.AddProcess(core.NewMarkDuplicateProcess("MarkDuplicate", in, deduped))
	info := core.UndefinedPartitionInfo("partitionInfo")
	pl.AddProcess(core.NewReadRepartitionerProcess("ReadRepartitioner", []*core.SAMBundle{deduped}, info))
	realigned := core.UndefinedSAM("realignedSam", nil)
	pl.AddProcess(core.NewIndelRealignProcess("IndelRealign", info, deduped, realigned))
	recaled := core.UndefinedSAM("recaledSam", nil)
	pl.AddProcess(core.NewBaseRecalibrationProcess("BaseRecalibration", info, realigned, recaled))
	if err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	flat, err := recaled.EnsureFlat(rt)
	if err != nil {
		t.Fatal(err)
	}
	out, err := engine.Collect("recaledSam/collect", flat)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := sam.WriteText(h, recaled.Header, out); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil)), len(out)
}
