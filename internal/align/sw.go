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
// end-to-end while the reference window has free flanks (Gotoh DP with full
// traceback). It returns the best score, the window offset where the
// alignment begins, and an M/I/D CIGAR covering the whole read.
//
// It first tries the certified ungapped extension (ungapped.go), which
// answers without any DP when one start diagonal is provably the unique
// optimum, then the banded DP (banded.go), which fills only a diagonal band
// of the matrix and proves its own answer identical via the out-of-band
// score certificate — falling back to the full DP on the rare reads whose
// banded optimum cannot rule out an out-of-band path.
func fitAlign(read, window []byte, sc Scoring) fitResult {
	if fit, ok := fitAlignUngapped(read, window, sc); ok {
		return fit
	}
	if bandedEligible(len(read), len(window), sc) {
		if fit, ok := fitAlignBanded(read, window, sc); ok {
			return fit
		}
	}
	return fitAlignFull(read, window, sc)
}

// fitAlignFull is the complete (m+1)×(n+1) Gotoh matrix: the fallback when
// the banded certificate refuses or the band does not apply, and the oracle
// for the ungapped and banded kernels' equivalence property tests.
func fitAlignFull(read, window []byte, sc Scoring) fitResult {
	m, n := len(read), len(window)
	if m == 0 {
		return fitResult{}
	}
	// Three layers: M (diagonal), X (gap in reference = insertion in read,
	// consumes read), Y (gap in read = deletion, consumes reference).
	// Rows: read index 0..m. Cols: window index 0..n.
	idx := func(i, j int) int { return i*(n+1) + j }
	M := make([]int32, (m+1)*(n+1))
	X := make([]int32, (m+1)*(n+1))
	Y := make([]int32, (m+1)*(n+1))
	// ptr encodes traceback: 2 bits per layer.
	ptrM := make([]uint8, (m+1)*(n+1))
	ptrX := make([]uint8, (m+1)*(n+1))
	ptrY := make([]uint8, (m+1)*(n+1))
	const (
		fromM = 1
		fromX = 2
		fromY = 3
	)

	for j := 0; j <= n; j++ {
		M[idx(0, j)] = 0 // free leading reference flank
		X[idx(0, j)] = negInf
		Y[idx(0, j)] = negInf
	}
	for i := 1; i <= m; i++ {
		M[idx(i, 0)] = negInf
		Y[idx(i, 0)] = negInf
		X[idx(i, 0)] = int32(sc.GapOpen + (i-1)*sc.GapExtend)
		ptrX[idx(i, 0)] = fromX
	}

	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			sub := sc.Mismatch
			if read[i-1] == window[j-1] && read[i-1] != 'N' {
				sub = sc.Match
			}
			// M: diagonal move from best of three.
			dM, dX, dY := M[idx(i-1, j-1)], X[idx(i-1, j-1)], Y[idx(i-1, j-1)]
			best, from := dM, uint8(fromM)
			if dX > best {
				best, from = dX, fromX
			}
			if dY > best {
				best, from = dY, fromY
			}
			M[idx(i, j)] = best + int32(sub)
			ptrM[idx(i, j)] = from

			// X: consume read base (insertion relative to reference).
			openX := M[idx(i-1, j)] + int32(sc.GapOpen)
			extX := X[idx(i-1, j)] + int32(sc.GapExtend)
			if openX >= extX {
				X[idx(i, j)] = openX
				ptrX[idx(i, j)] = fromM
			} else {
				X[idx(i, j)] = extX
				ptrX[idx(i, j)] = fromX
			}

			// Y: consume window base (deletion).
			openY := M[idx(i, j-1)] + int32(sc.GapOpen)
			extY := Y[idx(i, j-1)] + int32(sc.GapExtend)
			if openY >= extY {
				Y[idx(i, j)] = openY
				ptrY[idx(i, j)] = fromM
			} else {
				Y[idx(i, j)] = extY
				ptrY[idx(i, j)] = fromY
			}
		}
	}

	// Best end: any column of the last row (free trailing reference flank),
	// best layer among M and X (ending in a deletion is never optimal).
	bestScore, bestJ, bestLayer := int32(negInf), 0, uint8(fromM)
	for j := 0; j <= n; j++ {
		if M[idx(m, j)] > bestScore {
			bestScore, bestJ, bestLayer = M[idx(m, j)], j, fromM
		}
		if X[idx(m, j)] > bestScore {
			bestScore, bestJ, bestLayer = X[idx(m, j)], j, fromX
		}
	}

	// Traceback.
	var rev sam.Cigar
	i, j, layer := m, bestJ, bestLayer
	appendOp := func(op byte) {
		if len(rev) > 0 && rev[len(rev)-1].Op == op {
			rev[len(rev)-1].Len++
			return
		}
		rev = append(rev, sam.CigarOp{Len: 1, Op: op})
	}
	for i > 0 {
		switch layer {
		case fromM:
			appendOp('M')
			layer = ptrM[idx(i, j)]
			i--
			j--
		case fromX:
			appendOp('I')
			layer = ptrX[idx(i, j)]
			i--
		case fromY:
			appendOp('D')
			layer = ptrY[idx(i, j)]
			j--
		}
	}
	// Reverse into forward order.
	cigar := make(sam.Cigar, len(rev))
	for k := range rev {
		cigar[k] = rev[len(rev)-1-k]
	}
	return fitResult{Score: int(bestScore), RefStart: j, Cigar: cigar.Normalize()}
}
