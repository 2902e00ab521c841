package align

import "github.com/gpf-go/gpf/internal/sam"

// Scoring follows BWA-MEM's defaults: match +1, mismatch -4, gap open -6,
// gap extend -1.
type Scoring struct {
	Match     int
	Mismatch  int
	GapOpen   int
	GapExtend int
}

// DefaultScoring returns the BWA-MEM default scheme.
func DefaultScoring() Scoring {
	return Scoring{Match: 1, Mismatch: -4, GapOpen: -6, GapExtend: -1}
}

const negInf = -1 << 29

// fitResult is the outcome of fitting a read into a reference window.
type fitResult struct {
	Score    int
	RefStart int // offset of the first consumed reference base in the window
	Cigar    sam.Cigar
}

// fitAlign performs semi-global affine-gap alignment: the read aligns
// end-to-end while the reference window has free flanks (Gotoh DP with
// traceback). It returns the best score, the window offset where the
// alignment begins, and an M/I/D CIGAR covering the whole read.
//
// It first tries the certified ungapped extension (ungapped.go), which
// answers without any DP when one start diagonal is provably the unique
// optimum, then the banded DP over a narrow diagonal band (banded.go),
// which proves its own answer identical via the out-of-band score
// certificate. On the rare reads whose band the certificate refuses, it runs
// the same DP over the full band [−m, n], where no path can leave the band.
func fitAlign(read, window []byte, sc Scoring) fitResult {
	if fit, ok := fitAlignUngapped(read, window, sc); ok {
		return fit
	}
	if fit, ok := fitAlignBanded(read, window, sc); ok {
		return fit
	}
	return fitAlignBand(read, window, sc, -len(read), len(window))
}
