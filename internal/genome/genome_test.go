package genome

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestReferenceIndex(t *testing.T) {
	ref := NewReference([]Contig{
		{Name: "chr1", Seq: []byte("ACGT")},
		{Name: "chr2", Seq: []byte("GGCC")},
	})
	if id, ok := ref.ContigID("chr2"); !ok || id != 1 {
		t.Fatalf("ContigID(chr2) = %d, %v; want 1, true", id, ok)
	}
	if _, ok := ref.ContigID("chrX"); ok {
		t.Fatal("ContigID(chrX) should not exist")
	}
	if got := ref.TotalLen(); got != 8 {
		t.Fatalf("TotalLen = %d, want 8", got)
	}
	if c := ref.Contig(5); c != nil {
		t.Fatal("Contig(5) should be nil")
	}
	if got := ref.Lengths(); len(got) != 2 || got[0] != 4 || got[1] != 4 {
		t.Fatalf("Lengths = %v", got)
	}
}

func TestSliceClamping(t *testing.T) {
	ref := NewReference([]Contig{{Name: "c", Seq: []byte("ACGTACGT")}})
	if got := ref.Slice(0, -3, 4); string(got) != "ACGT" {
		t.Fatalf("Slice(-3,4) = %q", got)
	}
	if got := ref.Slice(0, 6, 100); string(got) != "GT" {
		t.Fatalf("Slice(6,100) = %q", got)
	}
	if got := ref.Slice(0, 5, 5); got != nil {
		t.Fatalf("empty slice should be nil, got %q", got)
	}
	if got := ref.Slice(9, 0, 4); got != nil {
		t.Fatal("bad contig should return nil")
	}
}

func TestPositionString(t *testing.T) {
	a := Position{Contig: 0, Pos: 100}
	if a.String() != "0:100" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestIntervalOps(t *testing.T) {
	iv := Interval{Contig: 1, Start: 10, End: 20}
	if iv.Len() != 10 {
		t.Fatalf("Len = %d", iv.Len())
	}
	if !iv.Contains(1, 10) || iv.Contains(1, 20) || iv.Contains(0, 15) {
		t.Fatal("Contains broken")
	}
	if !iv.Overlaps(Interval{Contig: 1, Start: 19, End: 25}) {
		t.Fatal("should overlap")
	}
	if iv.Overlaps(Interval{Contig: 1, Start: 20, End: 25}) {
		t.Fatal("adjacent intervals do not overlap")
	}
	if iv.Overlaps(Interval{Contig: 2, Start: 10, End: 20}) {
		t.Fatal("different contigs do not overlap")
	}
	if (Interval{Start: 5, End: 3}).Len() != 0 {
		t.Fatal("degenerate interval length should be 0")
	}
}

func TestMergeIntervals(t *testing.T) {
	got := MergeIntervals([]Interval{
		{Contig: 0, Start: 10, End: 20},
		{Contig: 0, Start: 15, End: 30},
		{Contig: 0, Start: 30, End: 40}, // adjacent merges
		{Contig: 0, Start: 50, End: 60},
		{Contig: 1, Start: 0, End: 5},
	})
	want := []Interval{
		{Contig: 0, Start: 10, End: 40},
		{Contig: 0, Start: 50, End: 60},
		{Contig: 1, Start: 0, End: 5},
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d intervals, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interval %d = %v, want %v", i, got[i], want[i])
		}
	}
	if MergeIntervals(nil) != nil {
		t.Fatal("nil in, nil out")
	}
}

func TestReverseComplement(t *testing.T) {
	if got := ReverseComplement([]byte("ACGTN")); string(got) != "NACGT" {
		t.Fatalf("ReverseComplement = %q", got)
	}
	// Involution on ACGT-only strings.
	seq := []byte("GGATTCCA")
	if got := ReverseComplement(ReverseComplement(seq)); !bytes.Equal(got, seq) {
		t.Fatalf("double revcomp = %q, want %q", got, seq)
	}
}

func TestBaseCodeRoundTrip(t *testing.T) {
	for i, b := range []byte(Alphabet) {
		if BaseCode(b) != i {
			t.Fatalf("BaseCode(%c) = %d, want %d", b, BaseCode(b), i)
		}
		if CodeBase(i) != b {
			t.Fatalf("CodeBase(%d) = %c, want %c", i, CodeBase(i), b)
		}
	}
	if BaseCode('N') != -1 || BaseCode('x') != -1 {
		t.Fatal("non-ACGT bases must code to -1")
	}
	// lower-case accepted
	if BaseCode('g') != 2 {
		t.Fatal("lower-case g should code to 2")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	cfg := DefaultSynthConfig(42, 20000, 3)
	a := Synthesize(cfg)
	b := Synthesize(cfg)
	if a.NumContigs() != 3 {
		t.Fatalf("contigs = %d", a.NumContigs())
	}
	for i := range a.Contigs {
		if !bytes.Equal(a.Contigs[i].Seq, b.Contigs[i].Seq) {
			t.Fatalf("contig %d differs between runs with same seed", i)
		}
	}
	c := Synthesize(SynthConfig{Seed: 43, ContigLengths: cfg.ContigLengths})
	same := true
	for i := range a.Contigs {
		if !bytes.Equal(a.Contigs[i].Seq, c.Contigs[i].Seq) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical genomes")
	}
}

func TestSynthesizeComposition(t *testing.T) {
	ref := Synthesize(DefaultSynthConfig(7, 50000, 2))
	for i := range ref.Contigs {
		seq := ref.Contigs[i].Seq
		gc := 0
		for j, b := range seq {
			switch b {
			case 'G', 'C':
				gc++
			case 'A', 'T', 'N':
			default:
				t.Fatalf("contig %d has invalid byte %q at %d", i, b, j)
			}
		}
		if gc := float64(gc) / float64(len(seq)); gc < 0.2 || gc > 0.65 {
			t.Fatalf("contig %d GC %.3f outside plausible range", i, gc)
		}
	}
}

func TestMutateTruthSet(t *testing.T) {
	ref := Synthesize(DefaultSynthConfig(1, 100000, 2))
	donor := Mutate(ref, DefaultMutateConfig(2))
	if len(donor.Truth.Variants) == 0 {
		t.Fatal("no variants injected")
	}
	// Variants sorted and separated.
	prev := TruthVariant{Contig: -1}
	for _, v := range donor.Truth.Variants {
		if v.Contig == prev.Contig && v.Pos <= prev.Pos {
			t.Fatalf("variants not strictly ordered: %+v after %+v", v, prev)
		}
		if len(v.Ref) == 0 || len(v.Alt) == 0 {
			t.Fatalf("empty allele in %+v", v)
		}
		// Ref allele must match the reference sequence.
		refSeq := ref.Contigs[v.Contig].Seq
		if !bytes.Equal(refSeq[v.Pos:v.Pos+len(v.Ref)], v.Ref) {
			t.Fatalf("ref allele mismatch at %d:%d", v.Contig, v.Pos)
		}
		prev = v
	}
	// Haplotype 0 (all variants) should differ from the reference; haplotype 1
	// carries only homozygous variants so it differs less.
	if bytes.Equal(donor.Hap[0][0], ref.Contigs[0].Seq) {
		t.Fatal("haplotype 0 identical to reference")
	}
}

func TestMutateTypesPresent(t *testing.T) {
	ref := Synthesize(DefaultSynthConfig(5, 200000, 1))
	cfg := DefaultMutateConfig(6)
	cfg.IndelRate = 0.001 // raise indel rate so both types appear
	donor := Mutate(ref, cfg)
	var snv, ins, del int
	for _, v := range donor.Truth.Variants {
		switch v.Type {
		case SNV:
			snv++
		case Insertion:
			ins++
		case Deletion:
			del++
		}
	}
	if snv == 0 || ins == 0 || del == 0 {
		t.Fatalf("variant mix snv=%d ins=%d del=%d; want all > 0", snv, ins, del)
	}
}

func TestTruthSetFind(t *testing.T) {
	ts := TruthSet{Variants: []TruthVariant{
		{Contig: 0, Pos: 10}, {Contig: 0, Pos: 20}, {Contig: 1, Pos: 5},
	}}
	if got := ts.Find(0, 0, 15); len(got) != 1 || got[0].Pos != 10 {
		t.Fatalf("Find = %v", got)
	}
	if got := ts.Find(1, 0, 100); len(got) != 1 {
		t.Fatalf("Find contig1 = %v", got)
	}
	if got := ts.Find(2, 0, 100); got != nil {
		t.Fatalf("Find contig2 = %v", got)
	}
}

func TestFASTARoundTrip(t *testing.T) {
	ref := Synthesize(DefaultSynthConfig(11, 5000, 3))
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, ref); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumContigs() != ref.NumContigs() {
		t.Fatalf("contigs = %d, want %d", got.NumContigs(), ref.NumContigs())
	}
	for i := range ref.Contigs {
		if got.Contigs[i].Name != ref.Contigs[i].Name {
			t.Fatalf("name %d = %q", i, got.Contigs[i].Name)
		}
		if !bytes.Equal(got.Contigs[i].Seq, ref.Contigs[i].Seq) {
			t.Fatalf("contig %d sequence mismatch", i)
		}
	}
}

func TestReadFASTAErrors(t *testing.T) {
	if _, err := ReadFASTA(bytes.NewBufferString("ACGT\n")); err == nil {
		t.Fatal("sequence before header must error")
	}
	if _, err := ReadFASTA(bytes.NewBufferString("")); err == nil {
		t.Fatal("empty input must error")
	}
	if _, err := ReadFASTA(bytes.NewBufferString(">\nACGT\n")); err == nil {
		t.Fatal("empty contig name must error")
	}
	// lower-case input is upper-cased
	ref, err := ReadFASTA(bytes.NewBufferString(">c\nacgt\n"))
	if err != nil {
		t.Fatal(err)
	}
	if string(ref.Contigs[0].Seq) != "ACGT" {
		t.Fatalf("seq = %q", ref.Contigs[0].Seq)
	}
}

// Property: reverse complement is an involution for any ACGT string.
func TestReverseComplementInvolutionProperty(t *testing.T) {
	f := func(codes []uint8) bool {
		seq := make([]byte, len(codes))
		for i, c := range codes {
			seq[i] = CodeBase(int(c))
		}
		return bytes.Equal(ReverseComplement(ReverseComplement(seq)), seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: applying variants and re-deriving them via position arithmetic
// keeps haplotype length consistent: len(hap) = len(ref) + sum(len(alt)-len(ref)).
func TestHaplotypeLengthProperty(t *testing.T) {
	ref := Synthesize(DefaultSynthConfig(21, 50000, 1))
	donor := Mutate(ref, DefaultMutateConfig(22))
	delta := 0
	for _, v := range donor.Truth.Variants {
		delta += len(v.Alt) - len(v.Ref)
	}
	want := len(ref.Contigs[0].Seq) + delta
	if got := len(donor.Hap[0][0]); got != want {
		t.Fatalf("hap0 length = %d, want %d", got, want)
	}
}
