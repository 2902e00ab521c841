package caller

import (
	"bytes"
	"strconv"
	"testing"

	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/vcf"
)

func coveredRecord(pos int32, length int) sam.Record {
	cg, _ := sam.ParseCigar("50M")
	if length != 50 {
		cg = sam.Cigar{{Len: length, Op: 'M'}}
	}
	return sam.Record{
		Name: "r", RefID: 0, Pos: pos, MapQ: 60, Cigar: cg,
		Seq: bytes.Repeat([]byte("A"), length), Qual: bytes.Repeat([]byte("I"), length),
	}
}

func gvcfRef(t *testing.T) *genome.Reference {
	t.Helper()
	return genome.Synthesize(genome.DefaultSynthConfig(601, 2000, 1))
}

func TestReferenceBlocksCoveredRun(t *testing.T) {
	ref := gvcfRef(t)
	// Three overlapping reads covering [100, 200).
	records := []sam.Record{coveredRecord(100, 50), coveredRecord(130, 50), coveredRecord(150, 50)}
	iv := genome.Interval{Contig: 0, Start: 100, End: 200}
	blocks := ReferenceBlocks(records, ref, iv, nil, 1)
	if len(blocks) != 1 {
		t.Fatalf("blocks = %+v", blocks)
	}
	b := blocks[0]
	if b.Pos != 100 || b.Alt != NonRefAlt || b.GT != vcf.HomRef {
		t.Fatalf("block = %+v", b)
	}
	if end, err := strconv.Atoi(b.Info["END"]); err != nil || end != 200 {
		t.Fatalf("END = %d %v", end, err)
	}
	if b.Depth != 1 { // minimum depth across the run
		t.Fatalf("block depth = %d", b.Depth)
	}
}

func TestReferenceBlocksSplitByVariant(t *testing.T) {
	ref := gvcfRef(t)
	records := []sam.Record{coveredRecord(100, 100)}
	iv := genome.Interval{Contig: 0, Start: 100, End: 200}
	calls := []vcf.Record{{Chrom: "chr1", Pos: 150, Ref: "A", Alt: "T"}}
	blocks := ReferenceBlocks(records, ref, iv, calls, 1)
	if len(blocks) != 2 {
		t.Fatalf("variant should split the block: %+v", blocks)
	}
	if blocks[0].Pos != 100 || blocks[1].Pos != 151 {
		t.Fatalf("block starts: %d %d", blocks[0].Pos, blocks[1].Pos)
	}
	if end, _ := strconv.Atoi(blocks[0].Info["END"]); end != 150 {
		t.Fatalf("first block END = %d, want 150 (1-based inclusive before variant)", end)
	}
}

func TestReferenceBlocksDeletionSpanMasked(t *testing.T) {
	ref := gvcfRef(t)
	records := []sam.Record{coveredRecord(100, 100)}
	iv := genome.Interval{Contig: 0, Start: 100, End: 200}
	// A 5-base deletion call masks positions 150..155.
	calls := []vcf.Record{{Chrom: "chr1", Pos: 150, Ref: "AACCGG", Alt: "A"}}
	blocks := ReferenceBlocks(records, ref, iv, calls, 1)
	if len(blocks) != 2 {
		t.Fatalf("blocks = %+v", blocks)
	}
	if blocks[1].Pos != 156 {
		t.Fatalf("second block should start after the deletion span: %d", blocks[1].Pos)
	}
}

func TestReferenceBlocksRespectMinDepth(t *testing.T) {
	ref := gvcfRef(t)
	records := []sam.Record{coveredRecord(100, 50)} // depth 1 over [100,150)
	iv := genome.Interval{Contig: 0, Start: 100, End: 200}
	if blocks := ReferenceBlocks(records, ref, iv, nil, 2); blocks != nil {
		t.Fatalf("depth 1 < minDepth 2 should produce no blocks: %+v", blocks)
	}
	// Duplicates and unmapped reads contribute no depth.
	dup := coveredRecord(100, 50)
	dup.SetDuplicate(true)
	if blocks := ReferenceBlocks([]sam.Record{dup}, ref, iv, nil, 1); blocks != nil {
		t.Fatalf("duplicate reads should not count: %+v", blocks)
	}
}

func TestReferenceBlocksEmptyInterval(t *testing.T) {
	ref := gvcfRef(t)
	if got := ReferenceBlocks(nil, ref, genome.Interval{Contig: 0, Start: 5, End: 5}, nil, 1); got != nil {
		t.Fatalf("empty interval: %+v", got)
	}
	if got := ReferenceBlocks(nil, ref, genome.Interval{Contig: 9, Start: 0, End: 10}, nil, 1); got != nil {
		t.Fatalf("bad contig: %+v", got)
	}
}

func TestMergeGVCFOrdering(t *testing.T) {
	calls := []vcf.Record{{Chrom: "chr1", Pos: 50, Ref: "A", Alt: "T"}}
	blocks := []vcf.Record{
		{Chrom: "chr1", Pos: 0, Ref: "A", Alt: NonRefAlt},
		{Chrom: "chr1", Pos: 51, Ref: "C", Alt: NonRefAlt},
	}
	merged := MergeGVCF(calls, blocks)
	if len(merged) != 3 {
		t.Fatalf("merged = %d", len(merged))
	}
	if merged[0].Pos != 0 || merged[1].Pos != 50 || merged[2].Pos != 51 {
		t.Fatalf("order: %d %d %d", merged[0].Pos, merged[1].Pos, merged[2].Pos)
	}
}
