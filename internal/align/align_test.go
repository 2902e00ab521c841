package align

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
)

func TestSuffixArraySmall(t *testing.T) {
	// "banana" analog in coded bases plus sentinel.
	text := []byte{2, 1, 3, 1, 3, 1, 0} // symbolic
	sa := buildSuffixArray(text)
	// Verify sorted suffix property directly.
	for i := 1; i < len(sa); i++ {
		a, b := text[sa[i-1]:], text[sa[i]:]
		if bytes.Compare(a, b) >= 0 {
			t.Fatalf("suffixes out of order at %d: %v >= %v", i, a, b)
		}
	}
}

// Property: suffix array is a permutation producing sorted suffixes.
func TestSuffixArrayProperty(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		text := make([]byte, len(data)+1)
		for i, b := range data {
			text[i] = b%4 + 1
		}
		text[len(data)] = 0
		sa := buildSuffixArray(text)
		seen := make([]bool, len(text))
		for _, p := range sa {
			if seen[p] {
				return false
			}
			seen[p] = true
		}
		for i := 1; i < len(sa); i++ {
			if bytes.Compare(text[sa[i-1]:], text[sa[i]:]) >= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func testIndex(t *testing.T, size int, seed int64) *FMIndex {
	t.Helper()
	ref := genome.Synthesize(genome.DefaultSynthConfig(seed, size, 2))
	idx, err := BuildFMIndex(ref)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestBackwardSearchFindsAllOccurrences(t *testing.T) {
	idx := testIndex(t, 20000, 101)
	ref := idx.ref
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		c := rng.Intn(ref.NumContigs())
		seq := ref.Contigs[c].Seq
		pos := rng.Intn(len(seq) - 25)
		pattern := seq[pos : pos+25]
		if bytes.IndexByte(pattern, 'N') >= 0 {
			continue
		}
		iv := idx.BackwardSearch(pattern)
		if iv.Size() == 0 {
			t.Fatalf("pattern from reference not found: %q", pattern)
		}
		hits := idx.appendLocate(nil, iv, 1000)
		// Verify every hit is a real occurrence and our source position is
		// among them.
		found := false
		for _, h := range hits {
			p, ok := idx.Resolve(h)
			if !ok {
				t.Fatalf("unresolvable hit %d", h)
			}
			got := ref.Slice(p.Contig, p.Pos, p.Pos+len(pattern))
			if !bytes.Equal(got, pattern) {
				// Occurrences may span contig boundaries in concatenated
				// space; those resolve to short slices.
				if len(got) == len(pattern) {
					t.Fatalf("hit %v is not an occurrence: %q", p, got)
				}
				continue
			}
			if p.Contig == c && p.Pos == pos {
				found = true
			}
		}
		if !found {
			t.Fatalf("true position %d:%d missing from hits", c, pos)
		}
	}
}

func TestBackwardSearchVersusNaive(t *testing.T) {
	idx := testIndex(t, 5000, 103)
	ref := idx.ref
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		// Random pattern: mostly absent, sometimes present.
		pat := make([]byte, 12)
		for i := range pat {
			pat[i] = genome.Alphabet[rng.Intn(4)]
		}
		naive := 0
		for c := range ref.Contigs {
			naive += bytes.Count(ref.Contigs[c].Seq, pat)
		}
		iv := idx.BackwardSearch(pat)
		// FM-index counts occurrences in the concatenated text, which may
		// include cross-boundary matches the per-contig count misses; allow
		// got >= naive with small slack, exact when no boundary effects.
		if iv.Size() < naive {
			t.Fatalf("pattern %q: fm=%d < naive=%d", pat, iv.Size(), naive)
		}
		if iv.Size() > naive+2 {
			t.Fatalf("pattern %q: fm=%d >> naive=%d", pat, iv.Size(), naive)
		}
	}
}

func TestBackwardSearchRejectsN(t *testing.T) {
	idx := testIndex(t, 2000, 105)
	if iv := idx.BackwardSearch([]byte("ACGNACG")); iv.Size() != 0 {
		t.Fatal("patterns with N must not match")
	}
}

func TestResolveBoundaries(t *testing.T) {
	idx := testIndex(t, 10000, 107)
	if _, ok := idx.Resolve(-1); ok {
		t.Fatal("negative offset must not resolve")
	}
	if _, ok := idx.Resolve(int64(idx.n)); ok {
		t.Fatal("sentinel offset must not resolve")
	}
	p, ok := idx.Resolve(0)
	if !ok || p.Contig != 0 || p.Pos != 0 {
		t.Fatalf("Resolve(0) = %v %v", p, ok)
	}
}

func TestFitAlignExactMatch(t *testing.T) {
	read := []byte("ACGTACGTAC")
	window := []byte("TTTACGTACGTACTTT")
	fit := fitAlign(read, window, DefaultScoring())
	if fit.Score != len(read) {
		t.Fatalf("score = %d, want %d", fit.Score, len(read))
	}
	if fit.RefStart != 3 {
		t.Fatalf("refStart = %d, want 3", fit.RefStart)
	}
	if fit.Cigar.String() != "10M" {
		t.Fatalf("cigar = %s", fit.Cigar)
	}
}

func TestFitAlignMismatch(t *testing.T) {
	read := []byte("ACGTACGTAC")
	window := []byte("ACGTTCGTAC") // one mismatch at index 4
	fit := fitAlign(read, window, DefaultScoring())
	if fit.Cigar.String() != "10M" {
		t.Fatalf("cigar = %s", fit.Cigar)
	}
	if fit.Score != 9*1-4 {
		t.Fatalf("score = %d, want 5", fit.Score)
	}
}

func TestFitAlignDeletion(t *testing.T) {
	// Read skips 2 reference bases: ref = AAAACC GG TTTT, read = AAAACCTTTT
	window := []byte("AAAACCGGTTTT")
	read := []byte("AAAACCTTTT")
	fit := fitAlign(read, window, DefaultScoring())
	if fit.Cigar.String() != "6M2D4M" {
		t.Fatalf("cigar = %s", fit.Cigar)
	}
	if fit.Cigar.RefLen() != 12 {
		t.Fatalf("reflen = %d", fit.Cigar.RefLen())
	}
}

func TestFitAlignInsertion(t *testing.T) {
	window := []byte("AAAACCTTTT")
	read := []byte("AAAACCGGTTTT")
	fit := fitAlign(read, window, DefaultScoring())
	if fit.Cigar.String() != "6M2I4M" {
		t.Fatalf("cigar = %s", fit.Cigar)
	}
}

func TestFitAlignEmptyRead(t *testing.T) {
	fit := fitAlign(nil, []byte("ACGT"), DefaultScoring())
	if fit.Score != 0 || len(fit.Cigar) != 0 {
		t.Fatalf("empty read: %+v", fit)
	}
}

// Property: fitAlign's CIGAR always consumes the whole read.
func TestFitAlignConsumesReadProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		m := rng.Intn(40) + 5
		n := m + rng.Intn(20)
		read := make([]byte, m)
		window := make([]byte, n)
		for i := range read {
			read[i] = genome.Alphabet[rng.Intn(4)]
		}
		for i := range window {
			window[i] = genome.Alphabet[rng.Intn(4)]
		}
		fit := fitAlign(read, window, DefaultScoring())
		consumed := 0
		for _, op := range fit.Cigar {
			if strings.IndexByte("MIS=X", op.Op) >= 0 {
				consumed += op.Len
			}
		}
		if consumed != m {
			t.Fatalf("cigar %s consumes %d read bases, want %d", fit.Cigar, consumed, m)
		}
		if fit.RefStart < 0 || fit.RefStart+fit.Cigar.RefLen() > n {
			t.Fatalf("alignment out of window: start %d reflen %d window %d", fit.RefStart, fit.Cigar.RefLen(), n)
		}
	}
}

func TestAlignSeqRecoverPosition(t *testing.T) {
	idx := testIndex(t, 50000, 109)
	ref := idx.ref
	aligner := NewAligner(idx, Config{})
	rng := rand.New(rand.NewSource(13))
	recovered := 0
	trials := 40
	for trial := 0; trial < trials; trial++ {
		c := rng.Intn(ref.NumContigs())
		seq := ref.Contigs[c].Seq
		pos := rng.Intn(len(seq) - 110)
		read := append([]byte(nil), seq[pos:pos+100]...)
		if bytes.IndexByte(read, 'N') >= 0 {
			trials--
			continue
		}
		// Inject 2 errors.
		for k := 0; k < 2; k++ {
			i := rng.Intn(len(read))
			read[i] = genome.Alphabet[rng.Intn(4)]
		}
		qual := bytes.Repeat([]byte("I"), 100)
		als := aligner.AlignSeq(read, qual)
		if len(als) == 0 {
			continue
		}
		if als[0].Pos.Contig == c && abs(als[0].Pos.Pos-pos) <= 3 && !als[0].Reverse {
			recovered++
		}
	}
	if recovered < trials*8/10 {
		t.Fatalf("recovered %d/%d forward reads; want >= 80%%", recovered, trials)
	}
}

func TestAlignSeqReverseStrand(t *testing.T) {
	idx := testIndex(t, 50000, 111)
	ref := idx.ref
	aligner := NewAligner(idx, Config{})
	seq := ref.Contigs[0].Seq
	pos := 5000
	read := genome.ReverseComplement(seq[pos : pos+100])
	if bytes.IndexByte(read, 'N') >= 0 {
		t.Skip("N in test window")
	}
	qual := bytes.Repeat([]byte("I"), 100)
	als := aligner.AlignSeq(read, qual)
	if len(als) == 0 {
		t.Fatal("reverse read not aligned")
	}
	if !als[0].Reverse {
		t.Fatal("alignment should be reverse strand")
	}
	if als[0].Pos.Contig != 0 || abs(als[0].Pos.Pos-pos) > 3 {
		t.Fatalf("position %v, want ~0:%d", als[0].Pos, pos)
	}
	// Stored sequence must be in reference orientation.
	if !bytes.Equal(als[0].Seq, seq[pos:pos+100]) {
		t.Fatal("reverse alignment must store reference-oriented sequence")
	}
}

func TestAlignSeqGarbageUnmapped(t *testing.T) {
	idx := testIndex(t, 30000, 113)
	aligner := NewAligner(idx, Config{})
	// Random read unlikely to match anywhere with seeds.
	rng := rand.New(rand.NewSource(17))
	read := make([]byte, 100)
	for i := range read {
		read[i] = genome.Alphabet[rng.Intn(4)]
	}
	als := aligner.AlignSeq(read, bytes.Repeat([]byte("I"), 100))
	// Either no alignment or a low-score one; no high-confidence mapping.
	if len(als) > 0 && als[0].Score > 80 {
		t.Fatalf("garbage read aligned with score %d", als[0].Score)
	}
}

func TestAlignPairEndToEnd(t *testing.T) {
	ref := genome.Synthesize(genome.DefaultSynthConfig(115, 60000, 1))
	donor := genome.Mutate(ref, genome.DefaultMutateConfig(116))
	pairs := fastq.Simulate(donor, fastq.DefaultSimConfig(117, 3))
	idx, err := BuildFMIndex(ref)
	if err != nil {
		t.Fatal(err)
	}
	aligner := NewAligner(idx, Config{})
	if len(pairs) > 60 {
		pairs = pairs[:60]
	}
	mapped, proper := 0, 0
	for i := range pairs {
		r1, r2 := aligner.AlignPair(&pairs[i])
		if !r1.Unmapped() {
			mapped++
		}
		if !r2.Unmapped() {
			mapped++
		}
		if r1.Flag&sam.FlagProperPair != 0 {
			proper++
			// Proper pairs must agree on TLEN magnitude.
			if r1.TempLen+r2.TempLen != 0 || r1.TempLen == 0 {
				t.Fatalf("TLEN broken: %d %d", r1.TempLen, r2.TempLen)
			}
		}
		if r1.Name != r2.Name {
			t.Fatalf("mate names differ: %s %s", r1.Name, r2.Name)
		}
		if !r1.FirstOfPair() || r2.FirstOfPair() {
			t.Fatal("mate flags broken")
		}
	}
	if mapped < len(pairs)*2*85/100 {
		t.Fatalf("mapped %d/%d mates; want >= 85%%", mapped, 2*len(pairs))
	}
	if proper < len(pairs)*6/10 {
		t.Fatalf("proper pairs %d/%d; want >= 60%%", proper, len(pairs))
	}
}

func TestTrimMateSuffix(t *testing.T) {
	if trimMateSuffix("read/1") != "read" || trimMateSuffix("read/2") != "read" {
		t.Fatal("suffix trim broken")
	}
	if trimMateSuffix("read") != "read" || trimMateSuffix("r/3") != "r/3" {
		t.Fatal("non-mate names must pass through")
	}
}

func TestProperOrientation(t *testing.T) {
	fwd := &Alignment{Pos: genome.Position{Contig: 0, Pos: 100}, Cigar: mustCigar(t, "100M")}
	rev := &Alignment{Pos: genome.Position{Contig: 0, Pos: 300}, Reverse: true, Cigar: mustCigar(t, "100M")}
	if !properOrientation(fwd, rev, 50, 1000) {
		t.Fatal("FR pair at 300 insert should be proper")
	}
	// Same strand: never proper.
	rev2 := &Alignment{Pos: genome.Position{Contig: 0, Pos: 300}, Cigar: mustCigar(t, "100M")}
	if properOrientation(fwd, rev2, 50, 1000) {
		t.Fatal("FF pair must not be proper")
	}
	// Too far.
	far := &Alignment{Pos: genome.Position{Contig: 0, Pos: 5000}, Reverse: true, Cigar: mustCigar(t, "100M")}
	if properOrientation(fwd, far, 50, 1000) {
		t.Fatal("distant pair must not be proper")
	}
	// Different contig.
	other := &Alignment{Pos: genome.Position{Contig: 1, Pos: 300}, Reverse: true, Cigar: mustCigar(t, "100M")}
	if properOrientation(fwd, other, 50, 1000) {
		t.Fatal("cross-contig pair must not be proper")
	}
}

func mustCigar(t *testing.T, s string) sam.Cigar {
	t.Helper()
	c, err := sam.ParseCigar(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMapQOrdering(t *testing.T) {
	idx := testIndex(t, 50000, 121)
	ref := idx.ref
	aligner := NewAligner(idx, Config{})
	// A unique read should get higher MapQ than one from a repeat. Find a
	// repeat by querying seeds until one has many hits.
	rng := rand.New(rand.NewSource(19))
	var uniqueQ, repeatQ uint8
	haveUnique, haveRepeat := false, false
	for trial := 0; trial < 300 && (!haveUnique || !haveRepeat); trial++ {
		pos := rng.Intn(ref.Contigs[0].Len() - 110)
		read := ref.Slice(0, pos, pos+100)
		if bytes.IndexByte(read, 'N') >= 0 {
			continue
		}
		iv := idx.BackwardSearch(read[:30])
		als := aligner.AlignSeq(read, bytes.Repeat([]byte("I"), 100))
		if len(als) == 0 {
			continue
		}
		if iv.Size() == 1 && !haveUnique {
			uniqueQ, haveUnique = als[0].MapQ, true
		}
		if iv.Size() > 3 && len(als) > 1 && als[0].Score == als[1].Score && !haveRepeat {
			repeatQ, haveRepeat = als[0].MapQ, true
		}
	}
	if haveUnique && haveRepeat && uniqueQ <= repeatQ {
		t.Fatalf("unique MapQ %d should exceed repeat MapQ %d", uniqueQ, repeatQ)
	}
	if !haveUnique {
		t.Fatal("no unique read found in genome")
	}
}

func TestBuildFMIndexEmpty(t *testing.T) {
	if _, err := BuildFMIndex(genome.NewReference(nil)); err == nil {
		t.Fatal("empty reference must error")
	}
}

func TestAlignmentsSortedByScore(t *testing.T) {
	idx := testIndex(t, 40000, 123)
	ref := idx.ref
	aligner := NewAligner(idx, Config{})
	read := ref.Slice(0, 2000, 2100)
	if bytes.IndexByte(read, 'N') >= 0 {
		t.Skip("N in window")
	}
	als := aligner.AlignSeq(append([]byte(nil), read...), bytes.Repeat([]byte("I"), 100))
	if !sort.SliceIsSorted(als, func(i, j int) bool { return als[i].Score >= als[j].Score }) {
		t.Fatal("alignments not sorted by score")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Regression: when the indexed text length is an exact multiple of the occ
// checkpoint stride, rank(c, n) must still see the final checkpoint. A
// reference of 64k-1 bases gives text length 64k exactly.
func TestFMIndexCheckpointBoundary(t *testing.T) {
	for _, refLen := range []int{occCheckpoint*100 - 1, occCheckpoint * 100, occCheckpoint*100 + 1} {
		ref := genome.Synthesize(genome.SynthConfig{Seed: 77, ContigLengths: []int{refLen}})
		idx, err := BuildFMIndex(ref)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, b := range []byte(genome.Alphabet) {
			total += idx.BackwardSearch([]byte{b}).Size()
		}
		// Every non-N base matches exactly once.
		nCount := 0
		for _, b := range ref.Contigs[0].Seq {
			if b == 'N' {
				nCount++
			}
		}
		if total != refLen { // Ns are indexed as A, so the sum covers them too
			if total != refLen-nCount+nCount { // defensive; Ns code to A
				t.Fatalf("refLen=%d: single-base intervals sum to %d", refLen, total)
			}
		}
		if total == 0 {
			t.Fatalf("refLen=%d: empty intervals (missing final checkpoint)", refLen)
		}
	}
}

func BenchmarkBuildFMIndex(b *testing.B) {
	ref := genome.Synthesize(genome.DefaultSynthConfig(201, 100000, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildFMIndex(ref); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlignPair(b *testing.B) {
	ref := genome.Synthesize(genome.DefaultSynthConfig(203, 100000, 2))
	donor := genome.Mutate(ref, genome.DefaultMutateConfig(204))
	pairs := fastq.Simulate(donor, fastq.DefaultSimConfig(205, 2))
	idx, err := BuildFMIndex(ref)
	if err != nil {
		b.Fatal(err)
	}
	aligner := NewAligner(idx, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aligner.AlignPair(&pairs[i%len(pairs)])
	}
}

func BenchmarkBackwardSearch(b *testing.B) {
	ref := genome.Synthesize(genome.DefaultSynthConfig(207, 200000, 1))
	idx, err := BuildFMIndex(ref)
	if err != nil {
		b.Fatal(err)
	}
	pattern := ref.Contigs[0].Seq[5000:5025]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.BackwardSearch(pattern)
	}
}

// TestKernelAlignPairGolden pins the aligner's output bytes on a reference
// made of twenty copies of one unit, where most reads seed twenty equal-vote
// candidates and only MaxCandidates of them are extended. Which ones survive
// that cut is the unstable sort's choice (seedCandidates), so a toolchain
// whose pdqsort permutes equal elements differently — or a change to the
// sort — shows up here as a different hash rather than as silently different
// SAM. The hash is the one the byte-BWT, sort.Slice aligner produced.
func TestKernelAlignPairGolden(t *testing.T) {
	const golden = "d80f7a328846b952d93d0a7e8162b0a41593e1b1bd5bc48a523c338f3fad589e"
	rng := rand.New(rand.NewSource(81))
	unit := randomBases(rng, 1500)
	var seq []byte
	for i := 0; i < 20; i++ {
		seq = append(seq, unit...)
		seq = append(seq, randomBases(rng, 200)...)
	}
	ref := genome.NewReference([]genome.Contig{{Name: "chr1", Seq: seq}})
	pairs := fastq.Simulate(genome.Mutate(ref, genome.DefaultMutateConfig(82)), fastq.DefaultSimConfig(83, 4))
	idx, err := BuildFMIndex(ref)
	if err != nil {
		t.Fatal(err)
	}
	aligner := NewAligner(idx, Config{})
	recs := make([]sam.Record, 0, 2*len(pairs))
	for i := range pairs {
		r1, r2 := aligner.AlignPair(&pairs[i])
		recs = append(recs, r1, r2)
	}
	header, err := sam.NewHeader(sam.Unsorted, []string{"chr1"}, ref.Lengths())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := sam.WriteText(h, header, recs); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Fatalf("SAM of %d records hashes to %s, want %s", len(recs), got, golden)
	}
}
