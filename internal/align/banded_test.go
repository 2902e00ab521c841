package align

import (
	"math/rand"
	"testing"
)

// mutateRead copies a window slice and applies substitutions plus indels of
// the given maximum run length.
func mutateRead(rng *rand.Rand, src []byte, subRate float64, indels, maxIndel int) []byte {
	bases := []byte("ACGT")
	read := append([]byte(nil), src...)
	for i := range read {
		if rng.Float64() < subRate {
			read[i] = bases[rng.Intn(4)]
		}
	}
	for e := 0; e < indels && len(read) > 2*maxIndel+2; e++ {
		l := 1 + rng.Intn(maxIndel)
		at := 1 + rng.Intn(len(read)-l-1)
		if rng.Intn(2) == 0 {
			// Deletion from the read.
			read = append(read[:at], read[at+l:]...)
		} else {
			// Insertion of random bases.
			ins := make([]byte, l)
			for i := range ins {
				ins[i] = bases[rng.Intn(4)]
			}
			read = append(read[:at], append(ins, read[at:]...)...) //nolint
		}
	}
	return read
}

func checkFitEqual(t *testing.T, tag string, read, window []byte, sc Scoring) {
	t.Helper()
	want := fitAlignFull(read, window, sc)
	if !bandedEligible(len(read), len(window), sc) {
		return
	}
	got, ok := fitAlignBanded(read, window, sc)
	if !ok {
		return // certificate failed: dispatcher re-runs the full DP
	}
	if got.Score != want.Score || got.RefStart != want.RefStart || got.Cigar.String() != want.Cigar.String() {
		t.Fatalf("%s (m=%d n=%d):\nbanded score=%d start=%d cigar=%s\nfull   score=%d start=%d cigar=%s",
			tag, len(read), len(window),
			got.Score, got.RefStart, got.Cigar, want.Score, want.RefStart, want.Cigar)
	}
}

// TestKernelFitAlignBandedEquivalence: on random reads carved from random
// windows, the banded DP must reproduce the full DP exactly — score,
// RefStart and CIGAR — whenever its certificate accepts.
func TestKernelFitAlignBandedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	bases := []byte("ACGT")
	for c := 0; c < 600; c++ {
		n := 30 + rng.Intn(300)
		window := make([]byte, n)
		for i := range window {
			window[i] = bases[rng.Intn(4)]
		}
		rl := 10 + rng.Intn(n-10)
		off := rng.Intn(n - rl + 1)
		read := mutateRead(rng, window[off:off+rl], 0.06, rng.Intn(3), 4)
		checkFitEqual(t, "random", read, window, DefaultScoring())
	}
}

// TestKernelFitAlignBandedAdversarial drives indel-heavy cases: long indels
// at and beyond the band slack, where the certificate must either still
// prove equality or refuse (never silently differ).
func TestKernelFitAlignBandedAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	bases := []byte("ACGT")
	for c := 0; c < 300; c++ {
		n := 60 + rng.Intn(200)
		window := make([]byte, n)
		for i := range window {
			window[i] = bases[rng.Intn(4)]
		}
		rl := 40 + rng.Intn(n-40)
		off := rng.Intn(n - rl + 1)
		// Indel lengths straddle bandSlack: up to 1.5× the slack.
		read := mutateRead(rng, window[off:off+rl], 0.03, 1+rng.Intn(3), bandSlack+bandSlack/2)
		checkFitEqual(t, "adversarial", read, window, DefaultScoring())
	}
	// Hand-built extremes.
	window := []byte("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT")
	cases := [][]byte{
		window[:5], // tiny read, long window
		append(append([]byte{}, window...), window[:20]...), // read longer than window
		[]byte("TTTTTTTTTTTTTTTTTTTT"),                      // nothing matches
		[]byte("ACGTNNNNNNNNNNNNACGT"),                      // N runs never match
	}
	for _, read := range cases {
		checkFitEqual(t, "extreme", read, window, DefaultScoring())
	}
}

// TestKernelFitAlignBandedCertificateRefusal constructs a read whose only
// good alignment needs an indel far beyond the band; the banded kernel must
// refuse rather than return a worse in-band alignment.
func TestKernelFitAlignBandedCertificateRefusal(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	bases := []byte("ACGT")
	window := make([]byte, 200)
	for i := range window {
		window[i] = bases[rng.Intn(4)]
	}
	// Read = window with a 3*bandSlack deletion in the middle: the true
	// optimum needs diagonals far outside the band.
	read := append([]byte{}, window[:80]...)
	read = append(read, window[80+3*bandSlack:]...)
	if !bandedEligible(len(read), len(window), DefaultScoring()) {
		t.Fatal("case unexpectedly ineligible")
	}
	got, ok := fitAlignBanded(read, window, DefaultScoring())
	want := fitAlignFull(read, window, DefaultScoring())
	if ok && (got.Score != want.Score || got.Cigar.String() != want.Cigar.String()) {
		t.Fatalf("banded accepted a wrong answer: banded=%+v full=%+v", got, want)
	}
	// And the dispatcher must still land on the full answer.
	fit := fitAlign(read, window, DefaultScoring())
	if fit.Score != want.Score || fit.Cigar.String() != want.Cigar.String() {
		t.Fatalf("dispatcher diverged: %+v vs %+v", fit, want)
	}
}

func benchFitInputs() (read, window []byte) {
	rng := rand.New(rand.NewSource(33))
	bases := []byte("ACGT")
	window = make([]byte, 400)
	for i := range window {
		window[i] = bases[rng.Intn(4)]
	}
	// Typical short-read error profile: ~1% substitutions, one small indel.
	read = mutateRead(rng, window[100:250], 0.01, 1, 3)
	return
}

func BenchmarkKernelFitAlignFull(b *testing.B) {
	read, window := benchFitInputs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fitAlignFull(read, window, DefaultScoring())
	}
}

func BenchmarkKernelFitAlignBanded(b *testing.B) {
	read, window := benchFitInputs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := fitAlignBanded(read, window, DefaultScoring()); !ok {
			b.Fatal("certificate refused benchmark input")
		}
	}
}
