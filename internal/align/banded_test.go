package align

import (
	"bytes"
	"math/rand"
	"reflect"
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

// checkFitEqual asserts that the banded DP, when eligible and certified,
// returns the full DP's fit, and reports whether it was compared.
func checkFitEqual(t *testing.T, tag string, read, window []byte, sc Scoring) bool {
	t.Helper()
	want := fitAlignFull(read, window, sc)
	got, ok := fitAlignBanded(read, window, sc)
	if !ok {
		return false // refused: the dispatcher runs the full band
	}
	if got.Score != want.Score || got.RefStart != want.RefStart || got.Cigar.String() != want.Cigar.String() {
		t.Fatalf("%s (m=%d n=%d):\nread   %s\nwindow %s\nbanded score=%d start=%d cigar=%s\nfull   score=%d start=%d cigar=%s",
			tag, len(read), len(window), read, window,
			got.Score, got.RefStart, got.Cigar, want.Score, want.RefStart, want.Cigar)
	}
	return true
}

// realignerPad is the cleaner's realignPad: the indel realigner fits a read
// into its own span plus this many bases either side.
const realignerPad = 25

// tandemBases returns n bases of unit repeated: a homopolymer for a
// one-base unit, a short tandem repeat otherwise.
func tandemBases(unit []byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = unit[i%len(unit)]
	}
	return out
}

// TestKernelFitAlignBandedEquivalence: on random reads carved from random
// windows, the banded DP must reproduce the full DP exactly — score,
// RefStart and CIGAR — whenever its certificate accepts. The banded DP keeps
// no traceback pointers and recomputes each step's predecessor from the
// scores, so the cases include the callers' window shapes (the aligner's
// read + 2·Flank, the realigner's read + 2·realignPad) and tie-heavy windows
// of homopolymers and 2–3-base tandem repeats, where many paths share the
// optimal score and only the tie order picks the full DP's CIGAR.
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

	// The callers' shapes: a 100-base read cut from the middle of a window
	// padded by pad bases either side, with substitutions and indels of up
	// to 8 bases (an indel leaves the band only past bandSlack).
	shaped := func(tag string, pad int, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		compared := 0
		for c := 0; c < 400; c++ {
			window := randomBases(rng, 100+2*pad)
			read := mutateRead(rng, window[pad:pad+100], 0.03, 1+rng.Intn(3), 8)
			if rng.Intn(8) == 0 {
				read[rng.Intn(len(read))] = 'N'
			}
			if checkFitEqual(t, tag, read, window, DefaultScoring()) {
				compared++
			}
		}
		if compared < 200 {
			t.Fatalf("%s: the band certified %d of 400 fits, want ≥ 200", tag, compared)
		}
	}
	shaped("aligner-shaped", DefaultConfig().Flank, 25)
	shaped("realigner-shaped", realignerPad, 26)

	// Tie-heavy: windows of runs of one repeat unit, reads cut from them
	// with indels that a repeat lets sit at many offsets with one score.
	rng = rand.New(rand.NewSource(27))
	units := [][]byte{[]byte("A"), []byte("C"), []byte("AC"), []byte("AT"), []byte("CAG"), []byte("GGT")}
	compared := 0
	for c := 0; c < 600; c++ {
		var window []byte
		for len(window) < 120 {
			unit := units[rng.Intn(len(units))]
			window = append(window, tandemBases(unit, 5+rng.Intn(30))...)
			if rng.Intn(3) == 0 {
				window = append(window, randomBases(rng, 1+rng.Intn(4))...)
			}
		}
		pad := rng.Intn(realignerPad + 1)
		rl := min(100, len(window)-2*pad)
		read := mutateRead(rng, window[pad:pad+rl], 0.01, 1+rng.Intn(3), 6)
		if checkFitEqual(t, "tie-heavy", read, window, DefaultScoring()) {
			compared++
		}
		if checkFitEqual(t, "tie-heavy maxX2", read, window, scoringMaxX2) {
			compared++
		}
	}
	if compared < 900 {
		t.Fatalf("tie-heavy: the band certified %d of 1200 fits, want ≥ 900", compared)
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
// refuse rather than return a worse in-band alignment, and the dispatcher's
// full-band pass must return the full DP's fit.
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
	if lo, hi := bandBounds(len(read), len(window)); hi-lo >= len(window) {
		t.Fatal("case unexpectedly ineligible: the band is not narrower than a row")
	}
	want := fitAlignFull(read, window, DefaultScoring())
	if got, ok := fitAlignBanded(read, window, DefaultScoring()); ok {
		t.Fatalf("the certificate accepted the narrow band's fit %+v; the full DP's is %+v", got, want)
	}
	// So the dispatcher's answer comes from the full-band pass.
	if fit := fitAlign(read, window, DefaultScoring()); !reflect.DeepEqual(fit, want) {
		t.Fatalf("dispatcher diverged: %+v vs %+v", fit, want)
	}
}

// TestKernelFitAlignFullBandEquivalence: fitAlignBand over the full band
// [−m, n] is the fallback whenever the narrow band refuses, so it must equal
// the pointer-matrix DP on every input, with no certificate to hide behind:
// random shapes including reads longer than the window, an empty window,
// an empty read and N bases, under scorings inside and outside the
// certificate's sign shape (positive mismatch, non-negative gap open).
func TestKernelFitAlignFullBandEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	scorings := []Scoring{
		DefaultScoring(),
		scoringMaxX0,
		scoringMaxX2,
		{Match: 2, Mismatch: 1, GapOpen: -3, GapExtend: -1},  // positive mismatch
		{Match: 1, Mismatch: -3, GapOpen: 0, GapExtend: -2},  // zero gap open
		{Match: 3, Mismatch: -1, GapOpen: 1, GapExtend: 0},   // positive gap open
		{Match: 0, Mismatch: -2, GapOpen: -4, GapExtend: -1}, // zero match
	}
	check := func(read, window []byte) {
		t.Helper()
		for _, sc := range scorings {
			got := fitAlignBand(read, window, sc, -len(read), len(window))
			if want := fitAlignFull(read, window, sc); !reflect.DeepEqual(got, want) {
				t.Fatalf("read %q window %q scoring %+v:\nfull band %+v\nfull DP   %+v", read, window, sc, got, want)
			}
		}
	}
	for c := 0; c < 600; c++ {
		window := randomBases(rng, rng.Intn(120))
		var read []byte
		switch {
		case len(window) >= 12 && rng.Intn(3) > 0:
			// Carved from the window with substitutions and indels.
			rl := 10 + rng.Intn(len(window)-9)
			off := rng.Intn(len(window) - rl + 1)
			read = mutateRead(rng, window[off:off+rl], 0.05, rng.Intn(4), bandSlack+4)
		default:
			// Unrelated, often longer than the window.
			read = randomBases(rng, 1+rng.Intn(80))
		}
		for range rng.Intn(3) {
			read[rng.Intn(len(read))] = 'N'
		}
		if len(window) > 0 && rng.Intn(4) == 0 {
			window[rng.Intn(len(window))] = 'N'
		}
		check(read, window)
	}
	check(nil, []byte("ACGT"))
	check([]byte("ACGT"), nil)
	check(nil, nil)
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

// BenchmarkKernelFitAlignFull times the full DP on a 150-base read in a
// 400-base window: /reference is the pointer-matrix oracle fitAlignFull,
// /band the full-band fitAlignBand that fitAlign falls back to. ns/cell
// divides by the m·n cells both fill.
func BenchmarkKernelFitAlignFull(b *testing.B) {
	read, window := benchFitInputs()
	m, n := len(read), len(window)
	for _, c := range []struct {
		name string
		fit  func() fitResult
	}{
		{"reference", func() fitResult { return fitAlignFull(read, window, DefaultScoring()) }},
		{"band", func() fitResult { return fitAlignBand(read, window, DefaultScoring(), -m, n) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				c.fit()
			}
			cells := float64(bandCells(m, n, -m, n))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cells, "ns/cell")
		})
	}
}

// bandCells counts the cells fitAlignBand fills for an m-base read in an
// n-base window over the band [lo, hi].
func bandCells(m, n, lo, hi int) int {
	cells := 0
	for i := 1; i <= m; i++ {
		cells += min(hi, n-i) - max(lo, 1-i) + 1
	}
	return cells
}

// BenchmarkKernelFitAlignBanded times the banded DP on a 150-base read with
// one small indel in a 400-base window, and at its callers' shapes: the
// aligner's (100 bases in 100 + 2·Flank) and the realigner's (100 in
// 100 + 2·realignPad), each read holding one 2-base deletion so no ungapped
// certificate would answer first. ns/cell divides by the cells filled.
func BenchmarkKernelFitAlignBanded(b *testing.B) {
	shaped := func(pad int) (read, window []byte) {
		window = randomBases(rand.New(rand.NewSource(35)), 100+2*pad)
		read = append(bytes.Clone(window[pad:pad+50]), window[pad+52:pad+102]...)
		return read, window
	}
	read, window := benchFitInputs()
	aRead, aWindow := shaped(DefaultConfig().Flank)
	rRead, rWindow := shaped(realignerPad)
	for _, c := range []struct {
		name         string
		read, window []byte
	}{
		{"150in400", read, window},
		{"aligner", aRead, aWindow},
		{"realigner", rRead, rWindow},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, ok := fitAlignBanded(c.read, c.window, DefaultScoring()); !ok {
					b.Fatal("certificate refused benchmark input")
				}
			}
			lo, hi := bandBounds(len(c.read), len(c.window))
			cells := float64(bandCells(len(c.read), len(c.window), lo, hi))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cells, "ns/cell")
		})
	}
}
