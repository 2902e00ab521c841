package vcf

import (
	"bytes"
	"strings"
	"testing"
)

func TestGenotypeRoundTrip(t *testing.T) {
	for _, g := range []Genotype{HomRef, Het, HomAlt} {
		back, err := ParseGenotype(g.String())
		if err != nil {
			t.Fatal(err)
		}
		if back != g {
			t.Fatalf("round trip %v -> %v", g, back)
		}
	}
	if g, err := ParseGenotype("1|0"); err != nil || g != Het {
		t.Fatalf("phased het: %v %v", g, err)
	}
	if _, err := ParseGenotype("2/1"); err == nil {
		t.Fatal("multiallelic GT should error")
	}
}

func TestRecordClassifiers(t *testing.T) {
	snv := Record{Ref: "A", Alt: "T"}
	ins := Record{Ref: "A", Alt: "ATT"}
	del := Record{Ref: "ACC", Alt: "A"}
	if !snv.IsSNV() || snv.IsIndel() {
		t.Fatal("snv misclassified")
	}
	if ins.IsSNV() || !ins.IsIndel() {
		t.Fatal("ins misclassified")
	}
	if !del.IsIndel() {
		t.Fatal("del misclassified")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	h := NewHeader([]string{"chr1", "chr2"}, []int{1000, 500}, "NA12878")
	recs := []Record{
		{Chrom: "chr1", Pos: 99, Ref: "A", Alt: "G", Qual: 88.5, GT: Het, Depth: 30, Info: map[string]string{"AC": "1"}},
		{Chrom: "chr2", Pos: 4, Ref: "T", Alt: "TAA", Qual: 40, GT: HomAlt, Depth: 12},
	}
	var buf bytes.Buffer
	if err := Write(&buf, h, recs); err != nil {
		t.Fatal(err)
	}
	h2, recs2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Sample != "NA12878" {
		t.Fatalf("sample = %q", h2.Sample)
	}
	if len(h2.Contigs) != 2 || h2.Contigs[1].Length != 500 {
		t.Fatalf("contigs = %+v", h2.Contigs)
	}
	if len(recs2) != 2 {
		t.Fatalf("records = %d", len(recs2))
	}
	a := recs2[0]
	if a.Chrom != "chr1" || a.Pos != 99 || a.Ref != "A" || a.Alt != "G" || a.GT != Het || a.Depth != 30 {
		t.Fatalf("record 0 = %+v", a)
	}
	if a.Info["AC"] != "1" {
		t.Fatalf("info lost: %v", a.Info)
	}
	if recs2[1].GT != HomAlt {
		t.Fatalf("record 1 GT = %v", recs2[1].GT)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"short":      "chr1\t100\n",
		"bad pos":    "chr1\tx\t.\tA\tG\t10\tPASS\t.\n",
		"bad qual":   "chr1\t100\t.\tA\tG\tq\tPASS\t.\n",
		"bad contig": "##contig=<length=5>\n",
	}
	for name, in := range cases {
		if _, _, err := Read(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestSortRecords(t *testing.T) {
	recs := []Record{
		{Chrom: "chr2", Pos: 5},
		{Chrom: "chr1", Pos: 10},
		{Chrom: "chr1", Pos: 2},
	}
	SortRecords(recs)
	if recs[0].Pos != 2 || recs[1].Pos != 10 || recs[2].Chrom != "chr2" {
		t.Fatalf("sorted: %+v", recs)
	}
}

func TestSortDedup(t *testing.T) {
	t.Run("adjacent duplicates collapse to the first", func(t *testing.T) {
		got := SortDedup([]Record{
			{Chrom: "chr1", Pos: 10, Ref: "A", Alt: "G", Qual: 1},
			{Chrom: "chr1", Pos: 10, Ref: "A", Alt: "G", Qual: 2},
			{Chrom: "chr1", Pos: 20, Ref: "C", Alt: "T"},
		})
		if len(got) != 2 || got[0].Pos != 10 || got[0].Qual != 1 || got[1].Pos != 20 {
			t.Fatalf("deduped: %+v", got)
		}
	})
	t.Run("distinct alts at one position stay", func(t *testing.T) {
		got := SortDedup([]Record{
			{Chrom: "chr1", Pos: 10, Ref: "A", Alt: "T"},
			{Chrom: "chr1", Pos: 10, Ref: "A", Alt: "G"},
		})
		if len(got) != 2 || got[0].Alt != "G" || got[1].Alt != "T" {
			t.Fatalf("deduped: %+v", got)
		}
	})
	t.Run("empty input", func(t *testing.T) {
		if got := SortDedup(nil); len(got) != 0 {
			t.Fatalf("deduped: %+v", got)
		}
	})
}

func TestCompare(t *testing.T) {
	truth := []Record{
		{Chrom: "chr1", Pos: 100, Ref: "A", Alt: "G"},
		{Chrom: "chr1", Pos: 200, Ref: "C", Alt: "CAT"},
		{Chrom: "chr2", Pos: 50, Ref: "T", Alt: "A"},
	}
	calls := []Record{
		{Chrom: "chr1", Pos: 100, Ref: "A", Alt: "G"},   // exact TP
		{Chrom: "chr1", Pos: 202, Ref: "C", Alt: "CAT"}, // TP within tolerance
		{Chrom: "chr2", Pos: 90, Ref: "G", Alt: "C"},    // FP
	}
	s := Compare(calls, truth, 3)
	if s.TruePositive != 2 || s.FalsePositive != 1 || s.FalseNegative != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if p := s.Precision(); p < 0.66 || p > 0.67 {
		t.Fatalf("precision = %v", p)
	}
	if r := s.Recall(); r < 0.66 || r > 0.67 {
		t.Fatalf("recall = %v", r)
	}
}

func TestCompareNoDoubleCount(t *testing.T) {
	truth := []Record{{Chrom: "chr1", Pos: 100, Ref: "A", Alt: "G"}}
	calls := []Record{
		{Chrom: "chr1", Pos: 100, Ref: "A", Alt: "G"},
		{Chrom: "chr1", Pos: 100, Ref: "A", Alt: "G"},
	}
	s := Compare(calls, truth, 0)
	if s.TruePositive != 1 || s.FalsePositive != 1 {
		t.Fatalf("duplicate call double-counted: %+v", s)
	}
}

func TestCompareEmpty(t *testing.T) {
	s := Compare(nil, nil, 0)
	if s.Precision() != 0 || s.Recall() != 0 {
		t.Fatal("empty compare should yield zeros")
	}
}
