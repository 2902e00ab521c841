package fastq

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/gpf-go/gpf/internal/genome"
)

func TestRecordValidate(t *testing.T) {
	ok := Record{Name: "r1", Seq: []byte("ACGT"), Qual: []byte("IIII")}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Record{
		{Name: "", Seq: []byte("A"), Qual: []byte("I")},
		{Name: "r", Seq: []byte("AC"), Qual: []byte("I")},
		{Name: "r", Seq: []byte("A"), Qual: []byte{10}},
		{Name: "r", Seq: []byte("A"), Qual: []byte{127}},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Fatalf("case %d should fail validation", i)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	recs := []Record{
		{Name: "read1", Seq: []byte("ACGTACGT"), Qual: []byte("IIIIHHHH")},
		{Name: "read2/1", Seq: []byte("GGGG"), Qual: []byte("!!!!")},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i := range recs {
		got, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != recs[i].Name || !bytes.Equal(got.Seq, recs[i].Seq) || !bytes.Equal(got.Qual, recs[i].Qual) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got, recs[i])
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("after %d records: err %v, want io.EOF", len(recs), err)
	}
}

func TestReaderErrors(t *testing.T) {
	cases := map[string]string{
		"truncated":    "@r\nACGT\n+\n",
		"no at":        "r\nACGT\n+\nIIII\n",
		"no plus":      "@r\nACGT\nX\nIIII\n",
		"len mismatch": "@r\nACGT\n+\nIII\n",
	}
	for name, in := range cases {
		if _, err := NewReader(strings.NewReader(in)).Read(); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestReadPairs(t *testing.T) {
	f1 := "@a/1\nACGT\n+\nIIII\n@b/1\nTTTT\n+\nHHHH\n"
	f2 := "@a/2\nCCCC\n+\nIIII\n@b/2\nGGGG\n+\nHHHH\n"
	pairs, err := ReadPairs(strings.NewReader(f1), strings.NewReader(f2))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	if pairs[0].R1.Name != "a/1" || pairs[0].R2.Name != "a/2" {
		t.Fatalf("pair 0 names: %s %s", pairs[0].R1.Name, pairs[0].R2.Name)
	}
	// Unequal counts must error.
	short := "@a/2\nCCCC\n+\nIIII\n"
	if _, err := ReadPairs(strings.NewReader(f1), strings.NewReader(short)); err == nil {
		t.Fatal("unequal mate counts should error")
	}
}

// TestReadPairsSizedAndUnsizedReadersAgree: ReadPairs sizes its slice from
// the first record when R1's reader can tell its size, and what it returns
// must not depend on that. The first read is a tenth as long as the rest, so
// the guess is ten times over and must be given back.
func TestReadPairsSizedAndUnsizedReadersAgree(t *testing.T) {
	var text bytes.Buffer
	w := NewWriter(&text)
	w.Write(&Record{Name: "s", Seq: []byte("A"), Qual: []byte("I")})
	for i := 0; i < 40; i++ {
		w.Write(&Record{Name: "long", Seq: bytes.Repeat([]byte("A"), 40), Qual: bytes.Repeat([]byte("I"), 40)})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	in := text.Bytes()
	want, err := ReadPairs(struct{ io.Reader }{bytes.NewReader(in)}, bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadPairs(bytes.NewReader(in), bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || len(got) != 41 {
		t.Fatalf("sized reader read %d pairs, unsized %d, or they differ", len(got), len(want))
	}
	if cap(got) > 2*len(got) {
		t.Fatalf("%d pairs hold capacity for %d", len(got), cap(got))
	}
}

// TestReadSeqQualDoNotAlias: seq and qual share one allocation, yet an
// append to seq leaves qual as parsed, and a write to qual leaves seq.
func TestReadSeqQualDoNotAlias(t *testing.T) {
	read := func() Record {
		rec, err := NewReader(strings.NewReader("@r\nACGT\n+\nIIII\n")).Read()
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	r := read()
	r.Seq = append(r.Seq, 'N', 'N')
	if string(r.Qual) != "IIII" {
		t.Fatalf("append to Seq changed Qual to %q", r.Qual)
	}
	r = read()
	for i := range r.Qual {
		r.Qual[i] = '#'
	}
	if string(r.Seq) != "ACGT" {
		t.Fatalf("writes to Qual changed Seq to %q", r.Seq)
	}
}

func TestRecordBytes(t *testing.T) {
	r := Record{Name: "abc", Seq: []byte("ACGT"), Qual: []byte("IIII")}
	if got := r.Bytes(); got != 3+4+4+6 {
		t.Fatalf("Bytes = %d", got)
	}
	p := Pair{R1: r, R2: r}
	if p.Bytes() != 2*r.Bytes() {
		t.Fatal("pair bytes should be sum of mates")
	}
}

func testDonor(t *testing.T, seed int64, size int) *genome.Donor {
	t.Helper()
	ref := genome.Synthesize(genome.DefaultSynthConfig(seed, size, 2))
	return genome.Mutate(ref, genome.DefaultMutateConfig(seed+1))
}

func TestSimulateBasics(t *testing.T) {
	donor := testDonor(t, 3, 60000)
	cfg := DefaultSimConfig(4, 10)
	pairs := Simulate(donor, cfg)
	if len(pairs) == 0 {
		t.Fatal("no pairs simulated")
	}
	// Coverage sanity: total bases within 2x of target coverage.
	totalBases := 0
	for i := range pairs {
		totalBases += len(pairs[i].R1.Seq) + len(pairs[i].R2.Seq)
	}
	genomeLen := int(donor.Ref.TotalLen())
	cov := float64(totalBases) / float64(genomeLen)
	if cov < 5 || cov > 25 {
		t.Fatalf("achieved coverage %.1f, want near 10", cov)
	}
	for i := range pairs {
		if err := pairs[i].R1.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := pairs[i].R2.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(pairs[i].R1.Seq) != cfg.ReadLen {
			t.Fatalf("read len = %d", len(pairs[i].R1.Seq))
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	donor := testDonor(t, 5, 30000)
	a := Simulate(donor, DefaultSimConfig(7, 5))
	b := Simulate(donor, DefaultSimConfig(7, 5))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].R1.Seq, b[i].R1.Seq) || !bytes.Equal(a[i].R1.Qual, b[i].R1.Qual) {
			t.Fatalf("pair %d differs between identical-seed runs", i)
		}
	}
}

func TestSimulateHotspots(t *testing.T) {
	donor := testDonor(t, 9, 50000)
	hs := genome.Interval{Contig: 0, Start: 1000, End: 2000}
	cfg := DefaultSimConfig(10, 5)
	cfg.Hotspots = []genome.Interval{hs}
	cfg.HotspotFactor = 40
	base := Simulate(donor, DefaultSimConfig(10, 5))
	hot := Simulate(donor, cfg)
	if len(hot) <= len(base) {
		t.Fatalf("hotspot run produced %d pairs, base %d; want more", len(hot), len(base))
	}
}

func TestSimulateDuplicates(t *testing.T) {
	donor := testDonor(t, 11, 40000)
	cfg := DefaultSimConfig(12, 8)
	cfg.DuplicateRate = 0.5
	pairs := Simulate(donor, cfg)
	// With 50% duplication some consecutive pairs share identical fragments
	// modulo errors: check for at least one matching sequence prefix pair.
	dups := 0
	for i := 1; i < len(pairs); i++ {
		if bytes.Equal(pairs[i].R1.Seq[:20], pairs[i-1].R1.Seq[:20]) {
			dups++
		}
	}
	if dups == 0 {
		t.Fatal("expected duplicated fragments at 50% duplicate rate")
	}
}

func TestQualityProfilesDiffer(t *testing.T) {
	donor := testDonor(t, 13, 30000)
	cfgA := DefaultSimConfig(14, 5)
	cfgA.Profile = ProfileHiSeq()
	cfgB := DefaultSimConfig(14, 5)
	cfgB.Profile = ProfileGAII()
	a := Simulate(donor, cfgA)
	b := Simulate(donor, cfgB)
	mean := func(pairs []Pair) float64 {
		sum, n := 0, 0
		for i := range pairs {
			for _, q := range pairs[i].R1.Qual {
				sum += int(q) - QualMin
			}
			n += len(pairs[i].R1.Qual)
		}
		return float64(sum) / float64(n)
	}
	if meanA, meanB := mean(a), mean(b); meanA <= meanB {
		t.Fatalf("HiSeq profile mean %.1f should exceed GAII %.1f", meanA, meanB)
	}
}

func TestQualityAdjacentDeltasSmall(t *testing.T) {
	// The compression design assumes adjacent quality deltas concentrate near
	// zero (paper Fig 5). Verify the simulator produces that property.
	donor := testDonor(t, 15, 30000)
	pairs := Simulate(donor, DefaultSimConfig(16, 5))
	small, total := 0, 0
	for i := range pairs {
		q := pairs[i].R1.Qual
		for j := 1; j < len(q); j++ {
			d := int(q[j]) - int(q[j-1])
			if d < 0 {
				d = -d
			}
			if d <= 10 {
				small++
			}
			total++
		}
	}
	if frac := float64(small) / float64(total); frac < 0.9 {
		t.Fatalf("only %.2f of adjacent deltas within 10; want >= 0.9", frac)
	}
}
