package align

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
)

// Scorings that move maxX, the most mismatches the certificate accepts:
// default scoring gives 1.
var (
	scoringMaxX0 = Scoring{Match: 1, Mismatch: -5, GapOpen: -6, GapExtend: -1} // 1·6 < 6 fails
	scoringMaxX2 = Scoring{Match: 1, Mismatch: -2, GapOpen: -8, GapExtend: -1} // 2·3 < 8, 3·3 ≥ 8
)

func randomBases(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = "ACGT"[rng.Intn(4)]
	}
	return out
}

// substitute returns a copy of src with k distinct positions changed to a
// different base.
func substitute(rng *rand.Rand, src []byte, k int) []byte {
	read := append([]byte(nil), src...)
	for _, at := range rng.Perm(len(read))[:k] {
		b := read[at]
		for read[at] == b {
			read[at] = "ACGT"[rng.Intn(4)]
		}
	}
	return read
}

func sameFit(a, b fitResult) bool {
	return a.Score == b.Score && a.RefStart == b.RefStart && a.Cigar.String() == b.Cigar.String()
}

// checkUngapped asserts that the certificate, when it accepts, returns the
// full DP's fit, and that the dispatcher returns it either way. It reports
// whether the certificate accepted.
func checkUngapped(t *testing.T, tag string, read, window []byte, sc Scoring) bool {
	t.Helper()
	want := fitAlignFull(read, window, sc)
	got, ok := fitAlignUngapped(read, window, sc)
	if ok && !sameFit(got, want) {
		t.Fatalf("%s: read %q window %q scoring %+v:\nungapped score=%d start=%d cigar=%s\nfull     score=%d start=%d cigar=%s",
			tag, read, window, sc, got.Score, got.RefStart, got.Cigar, want.Score, want.RefStart, want.Cigar)
	}
	if fit := fitAlign(read, window, sc); !sameFit(fit, want) {
		t.Fatalf("%s: read %q window %q scoring %+v: dispatcher %+v, full DP %+v", tag, read, window, sc, fit, want)
	}
	return ok
}

// TestKernelFitAlignUngappedEquivalence: the certified ungapped extension
// must agree with the full DP — score, RefStart and CIGAR — on every input
// it accepts, accept the placements it exists for, and hand everything it
// cannot prove to the DP.
func TestKernelFitAlignUngappedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	def := DefaultScoring()

	// Random 100-mers with 0..3 substitutions in a flank-16 window: accepted
	// exactly when the substitutions fit under the scoring's maxX.
	for c := 0; c < 200; c++ {
		window := randomBases(rng, 132)
		off := rng.Intn(33)
		for k := 0; k <= 3; k++ {
			read := substitute(rng, window[off:off+100], k)
			for _, tc := range []struct {
				sc   Scoring
				maxX int
			}{{def, 1}, {scoringMaxX0, 0}, {scoringMaxX2, 2}} {
				if ok := checkUngapped(t, "substitutions", read, window, tc.sc); ok != (k <= tc.maxX) {
					t.Fatalf("%d substitutions, maxX %d: certified = %v", k, tc.maxX, ok)
				}
			}
		}
	}

	// Ties on two or more diagonals prove nothing and must reach the DP.
	homopolymer := bytes.Repeat([]byte("A"), 60)
	tandem := bytes.Repeat([]byte("ACG"), 30)
	for _, tc := range []struct {
		tag          string
		read, window []byte
	}{
		{"homopolymer", homopolymer[:40], homopolymer},
		{"tandem repeat", tandem[:45], tandem},
		{"tandem repeat, one mismatch", append([]byte("T"), tandem[1:45]...), tandem},
	} {
		if checkUngapped(t, tc.tag, tc.read, tc.window, def) {
			t.Fatalf("%s: a tie between diagonals was certified", tc.tag)
		}
	}
	// The same repeat anchored by unique flanks has one best diagonal.
	anchored := append(append(randomBases(rng, 20), tandem[:30]...), randomBases(rng, 20)...)
	if !checkUngapped(t, "anchored repeat", anchored[8:62], anchored, def) {
		t.Fatal("anchored repeat: unique diagonal not certified")
	}

	// N never matches, in the read, in the window or in both at once.
	window := randomBases(rng, 132)
	read := append([]byte(nil), window[16:116]...)
	read[50] = 'N'
	if !checkUngapped(t, "N in read", read, window, def) {
		t.Fatal("N in read: one mismatch not certified")
	}
	nWindow := append([]byte(nil), window...)
	nWindow[66] = 'N'
	if !checkUngapped(t, "N in window", window[16:116], nWindow, def) {
		t.Fatal("N in window: one mismatch not certified")
	}
	if !checkUngapped(t, "N in both", read, nWindow, def) {
		t.Fatal("N against N: one mismatch not certified")
	}
	read[10] = 'N'
	if checkUngapped(t, "two N in read", read, window, def) {
		t.Fatal("two N in read: two mismatches certified under default scoring")
	}

	// Bytes compare exactly: a lowercase window base mismatches its
	// uppercase read base, and matches the same lowercase byte.
	lower := append([]byte(nil), window...)
	lower[40] |= 0x20
	if !checkUngapped(t, "lowercase window", window[16:116], lower, def) {
		t.Fatal("lowercase window base: one mismatch not certified")
	}
	lower[90] |= 0x20
	if checkUngapped(t, "two lowercase window bases", window[16:116], lower, def) {
		t.Fatal("two lowercase window bases certified under default scoring")
	}
	if !checkUngapped(t, "lowercase both", lower[16:116], lower, def) {
		t.Fatal("identical lowercase bytes must match")
	}

	// Windows clamped at a contig edge lose a flank, down to n == m; below
	// that the read cannot be placed without a gap and the DP decides.
	for _, tc := range []struct {
		tag      string
		lo, hi   int
		wantCert bool
	}{
		{"clamped left", 16, 132, true},
		{"clamped right", 0, 116, true},
		{"n == m", 16, 116, true},
		{"n < m", 16, 110, false},
		{"n < m by a flank", 30, 116, false},
	} {
		if ok := checkUngapped(t, tc.tag, window[16:116], window[tc.lo:tc.hi], def); ok != tc.wantCert {
			t.Fatalf("%s: certified = %v", tc.tag, ok)
		}
	}
	if _, ok := fitAlignUngapped(nil, window, def); ok {
		t.Fatal("empty read certified")
	}

	// Scorings outside the certificate's sign assumptions always bail.
	for _, sc := range []Scoring{
		{Match: 0, Mismatch: -4, GapOpen: -6, GapExtend: -1},
		{Match: 1, Mismatch: 1, GapOpen: -6, GapExtend: -1},
		{Match: 1, Mismatch: -4, GapOpen: 0, GapExtend: -1},
		{Match: 1, Mismatch: -4, GapOpen: -6, GapExtend: 1},
	} {
		if checkUngapped(t, "ineligible scoring", window[16:116], window, sc) {
			t.Fatalf("scoring %+v certified", sc)
		}
	}

	// Reads with indels and denser substitutions: whatever is accepted must
	// still be the full DP's answer.
	for c := 0; c < 300; c++ {
		n := 30 + rng.Intn(200)
		window := randomBases(rng, n)
		rl := 10 + rng.Intn(n-10)
		off := rng.Intn(n - rl + 1)
		read := mutateRead(rng, window[off:off+rl], 0.02, rng.Intn(2), 4)
		for _, sc := range []Scoring{def, scoringMaxX0, scoringMaxX2} {
			checkUngapped(t, "random", read, window, sc)
		}
	}
}

// fuzzAlphabet keeps fuzzed reads and windows in the bytes real inputs hold,
// so matches, N and case differences all occur.
const fuzzAlphabet = "ACGTNacgtn"

// FuzzFitAlignFastPath: for any read, window and scoring, the certificate
// accepts only the full DP's fit and the dispatcher always returns it.
func FuzzFitAlignFastPath(f *testing.F) {
	f.Fuzz(func(t *testing.T, read, window, scoring []byte) {
		if len(read) > 150 || len(window) > 200 || len(scoring) < 4 {
			t.Skip()
		}
		read, window = bytes.Clone(read), bytes.Clone(window)
		for i, b := range read {
			read[i] = fuzzAlphabet[int(b)%len(fuzzAlphabet)]
		}
		for i, b := range window {
			window[i] = fuzzAlphabet[int(b)%len(fuzzAlphabet)]
		}
		// Match 0..3, the penalties −8..1: mostly the usual sign shape, now
		// and then one the certificate must refuse.
		sc := Scoring{
			Match:     int(scoring[0] % 4),
			Mismatch:  1 - int(scoring[1]%10),
			GapOpen:   1 - int(scoring[2]%10),
			GapExtend: 1 - int(scoring[3]%10),
		}
		checkUngapped(t, "fuzz", read, window, sc)
	})
}

// TestKernelAlignPairRecordIdentity: over a few thousand simulated pairs
// from a donor with SNVs and indels, every (read, window) the aligner fits —
// gathered the way alignOriented gathers them — gets from fitAlign exactly
// the full DP's result, so AlignPair's records are those of an aligner
// without fast paths (TestKernelAlignPairGolden pins their bytes). The run
// exercises both the ungapped certificate (nearly every fit) and the DP
// behind it (the rest), so neither path can rot unnoticed.
func TestKernelAlignPairRecordIdentity(t *testing.T) {
	ref := genome.Synthesize(genome.DefaultSynthConfig(61, 60000, 2))
	mc := genome.DefaultMutateConfig(62)
	mc.IndelRate = 0.0005
	pairs := fastq.Simulate(genome.Mutate(ref, mc), fastq.DefaultSimConfig(63, 8))
	if len(pairs) < 2000 {
		t.Fatalf("only %d pairs simulated", len(pairs))
	}
	idx, err := BuildFMIndex(ref)
	if err != nil {
		t.Fatal(err)
	}
	aligner := NewAligner(idx, Config{})
	sc := aligner.cfg.Scoring

	var certified, dp int
	scratch := new(seedScratch)
	checkFits := func(seq []byte) {
		for _, c := range aligner.seedCandidates(seq, scratch) {
			window, _, _, ok := aligner.candidateWindow(len(seq), c)
			if !ok {
				continue
			}
			if got, want := fitAlign(seq, window, sc), fitAlignFull(seq, window, sc); !reflect.DeepEqual(got, want) {
				t.Fatalf("fit differs (read %s):\nfitAlign     %+v\nfitAlignFull %+v", seq, got, want)
			}
			if _, ok := fitAlignUngapped(seq, window, sc); ok {
				certified++
			} else {
				dp++
			}
		}
	}
	for i := range pairs {
		for _, seq := range [][]byte{pairs[i].R1.Seq, pairs[i].R2.Seq} {
			checkFits(seq)
			checkFits(genome.ReverseComplement(seq))
		}
	}
	if fits := certified + dp; dp == 0 || float64(certified) <= 0.9*float64(fits) {
		t.Fatalf("of %d fits %d were certified and %d went to the DP; want > 90%% certified and some DP", fits, certified, dp)
	}
	t.Logf("%d pairs, %d fits: %d certified, %d DP", len(pairs), certified+dp, certified, dp)
}

// BenchmarkKernelFitAlignUngapped is the certificate on the aligner's usual
// case, a 100-mer with one substitution in a flank-16 window; compare
// BenchmarkKernelFitAlignBanded / …Full for the DPs it spares.
func BenchmarkKernelFitAlignUngapped(b *testing.B) {
	rng := rand.New(rand.NewSource(65))
	window := randomBases(rng, 132)
	read := substitute(rng, window[16:116], 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := fitAlignUngapped(read, window, DefaultScoring()); !ok {
			b.Fatal("certificate refused benchmark input")
		}
	}
}

// TestKernelAlignPairConcurrent: one Aligner shared by several goroutines —
// how the engine's tasks and bench/ use it — returns what a single goroutine
// gets; under -race this covers the pooled seeding scratch.
func TestKernelAlignPairConcurrent(t *testing.T) {
	ref := genome.Synthesize(genome.DefaultSynthConfig(71, 20000, 2))
	pairs := fastq.Simulate(genome.Mutate(ref, genome.DefaultMutateConfig(72)), fastq.DefaultSimConfig(73, 4))
	idx, err := BuildFMIndex(ref)
	if err != nil {
		t.Fatal(err)
	}
	aligner := NewAligner(idx, Config{})
	want := make([]sam.Record, 2*len(pairs))
	for i := range pairs {
		want[2*i], want[2*i+1] = aligner.AlignPair(&pairs[i])
	}
	const workers = 4
	got := make([]sam.Record, 2*len(pairs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pairs); i += workers {
				got[2*i], got[2*i+1] = aligner.AlignPair(&pairs[i])
			}
		}(w)
	}
	wg.Wait()
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d differs under concurrency:\n%+v\n%+v", i, got[i], want[i])
		}
	}
}
