package align

import (
	"github.com/gpf-go/gpf/internal/bufpool"
	"github.com/gpf-go/gpf/internal/sam"
)

// Banded fit alignment (see DESIGN.md, "Hot kernels"). The full Gotoh DP
// fills (m+1)×(n+1) cells, but for realignment and haplotype fitting the
// read and window are close in length and the optimal path hugs the main
// diagonal: almost all of that work scores paths with absurd gap counts.
// The banded kernel fills only diagonals d = j−i in [lo, hi], where
//
//	lo = min(0, n−m) − bandSlack
//	hi = max(0, n−m) + bandSlack
//
// i.e. every start offset the length difference allows, plus bandSlack
// diagonals of indel headroom on each side.
//
// Soundness certificate — why the result is exactly the full DP's, CIGAR
// included, whenever ok is returned:
//
// A path's diagonal starts at j_start ≥ 0, ends at j_end − m ≤ n−m, and only
// insertions move it down. So any path that ever touches a diagonal below lo
// or above hi must contain at least
//
//	G = bandSlack + 1 + max(0, m−n)
//
// insertions (to dip below lo from a start ≥ 0, or to return from above hi
// to an end ≤ n−m). Such a path matches at most m−G read bases and pays for
// G insertions, so its score is at most
//
//	S_out = (m−G)·Match + bestGapCost(G)
//
// (deletions and mismatches only lower it, given the sign shape Match ≥ 0
// and Mismatch, GapOpen, GapExtend ≤ 0). If the banded optimum strictly
// beats S_out, every optimal path lies inside the band; the banded matrix
// then agrees
// with the full matrix along every optimal path (a traceback prefix achieves
// its cell's value, and in-band values never exceed full values), so the
// deterministic traceback — same tie-break order, same end-cell scan — picks
// the identical path. Any discrepancy would imply an out-of-band optimum,
// contradicting the certificate. If G > m an out-of-band path is outright
// impossible (insertions consume read bases). When the certificate fails,
// the scoring is outside its sign shape, or the band is no narrower than a
// row, fitAlign runs the same fill over the full band [−m, n]: every cell of
// the matrix, where no path can leave the band and nothing needs certifying.
//
// The property tests TestKernelFitAlignBandedEquivalence and
// TestKernelFitAlignFullBandEquivalence check score+RefStart+CIGAR equality
// against the pointer-matrix Gotoh DP (fitAlignFull, in sw_test.go) on
// random and adversarial indel-heavy inputs.

// bandSlack is the indel headroom on each side of the diagonal band. 16
// covers every indel the assembler or realigner produces at default configs
// while keeping the band ~33 diagonals wide.
const bandSlack = 16

// bandBounds returns the band [lo, hi] over diagonals d = j−i, clipped to
// the reachable range [−m, n].
func bandBounds(m, n int) (lo, hi int) {
	lo, hi = -bandSlack, bandSlack
	if n-m < 0 {
		lo = n - m - bandSlack
	} else if n-m > 0 {
		hi = n - m + bandSlack
	}
	if lo < -m {
		lo = -m
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// fitAlignBanded runs fitAlignBand over the narrow band bandBounds(m, n).
// ok is false when the band is no narrower than a row, when the scoring is
// outside the certificate's sign shape, or when the banded optimum cannot
// certify that no out-of-band path beats it; the caller then runs the full
// band.
func fitAlignBanded(read, window []byte, sc Scoring) (fit fitResult, ok bool) {
	m, n := len(read), len(window)
	lo, hi := bandBounds(m, n)
	if hi-lo >= n || sc.Match < 0 || sc.Mismatch > 0 || sc.GapOpen > 0 || sc.GapExtend > 0 {
		return fitResult{}, false
	}
	fit = fitAlignBand(read, window, sc, lo, hi)
	// Certificate: does the banded optimum rule out every out-of-band path?
	if G := bandSlack + 1 + max(0, m-n); G <= m {
		gapBest := max(sc.GapOpen+(G-1)*sc.GapExtend, G*sc.GapOpen)
		if fit.Score <= (m-G)*sc.Match+gapBest {
			return fitResult{}, false
		}
	}
	return fit, true
}

// fitAlignBand runs the Gotoh DP over the diagonals d = j−i in [lo, hi],
// with −m ≤ lo ≤ 0 ≤ hi ≤ n, and traces back its best end. Over [−m, n] it is
// the full DP; over a narrower band its answer is the full DP's only when
// fitAlignBanded's certificate says so. An empty read fits as the zero
// fitResult.
//
// It keeps scores only. Each cell's max is the builtin max, with no branch
// on the data, and the traceback recomputes each step's predecessor from the
// stored neighbours with the full DP's tie order: M from M, then X, then Y,
// switching on strict >; X and Y open from M on >=.
func fitAlignBand(read, window []byte, sc Scoring, lo, hi int) fitResult {
	m := len(read)
	if m == 0 {
		return fitResult{}
	}
	n := len(window)
	// Diagonal-indexed storage: cell (i, j) lives at row i, slot
	// k = (j−i) − lo + 1. The diagonal predecessor (i−1, j−1) keeps the same
	// k; the insertion predecessor (i−1, j) is k+1; the deletion predecessor
	// (i, j−1) is k−1. Slots 0 and W+1 are pads held at negInf so band-edge
	// cells read −∞ neighbors without branching.
	W := hi - lo + 1
	stride := W + 2
	size := (m + 1) * stride
	scores := bufpool.GetI32(3 * size)
	defer bufpool.PutI32(scores)
	M, X, Y := scores[0:size], scores[size:2*size], scores[2*size:3*size]
	gapOpen, gapExt := int32(sc.GapOpen), int32(sc.GapExtend)

	// Only cells the recurrence, the end scan or the traceback read are
	// set before the fill: row 0, every row's two pads, and column 0 where
	// the band reaches it. Row 0 is the free leading reference flank on
	// every in-band start column.
	for k := range stride {
		M[k], X[k], Y[k] = negInf, negInf, negInf
	}
	for d := max(lo, 0); d <= hi; d++ {
		M[d-lo+1] = 0
	}
	for i := 1; i <= m; i++ {
		row := i * stride
		M[row], X[row], Y[row] = negInf, negInf, negInf
		M[row+W+1], X[row+W+1], Y[row+W+1] = negInf, negInf, negInf
		// Column 0: leading insertions, as far down as the band reaches.
		if d := -i; d >= lo {
			k := row + d - lo + 1
			M[k], X[k], Y[k] = negInf, int32(sc.GapOpen+(i-1)*sc.GapExtend), negInf
		}
	}

	for i := 1; i <= m; i++ {
		dStart := max(lo, 1-i) // j = i+d ≥ 1
		dEnd := min(hi, n-i)   // j ≤ n
		// The row's slices, cut to the row's width so the loop indexes them
		// without bounds checks: up* are row i−1 at k+1, diagY row i−1 at
		// k, cur* row i at k, win the window from the first cell's j−1. The
		// diagonal M and X ride in registers from the previous cell's up*.
		row := i*stride + dStart - lo + 1
		prow := row - stride
		width := dEnd - dStart + 1
		curM, curX, curY := M[row:row+width], X[row:row+width], Y[row:row+width]
		upM, upX := M[prow+1:][:width], X[prow+1:][:width]
		diagY := Y[prow:][:width]
		win := window[i+dStart-1:][:width]
		diagM, diagX := M[prow], X[prow]
		rb := read[i-1]
		match, mismatch := int32(sc.Match), int32(sc.Mismatch)
		if rb == 'N' {
			match = mismatch
		}
		// The left neighbour (i, j−1) of the first cell is a pad or column
		// 0, both −∞ in M and Y; after that it is the cell just written.
		leftM, leftY := int32(negInf), int32(negInf)
		for c := range curM {
			sub := mismatch
			if rb == win[c] {
				sub = match
			}
			uM, uX := upM[c], upX[c]
			// M: diagonal move from best of three.
			mv := max(diagM, diagX, diagY[c]) + sub
			// X: consume read base (insertion relative to reference).
			xv := max(uM+gapOpen, uX+gapExt)
			// Y: consume window base (deletion).
			yv := max(leftM+gapOpen, leftY+gapExt)
			curM[c], curX[c], curY[c] = mv, xv, yv
			diagM, diagX, leftM, leftY = uM, uX, mv, yv
		}
	}

	// Best end on the last row, in the full DP's scan order: columns
	// ascending (d ascending here), M before X per column, strict >.
	bestScore, bestK, bestLayer := int32(negInf), 0, byte('M')
	mrow := m * stride
	for d := lo; d <= min(hi, n-m); d++ {
		k := d - lo + 1
		if M[mrow+k] > bestScore {
			bestScore, bestK, bestLayer = M[mrow+k], k, 'M'
		}
		if X[mrow+k] > bestScore {
			bestScore, bestK, bestLayer = X[mrow+k], k, 'I'
		}
	}

	// Traceback, identical to the full DP's but stepping in (row, slot)
	// space: M keeps k, I moves to k+1 in the previous row, D moves to k−1.
	// Each step's layer is the one the fill's max took, recomputed from the
	// same stored neighbours.
	var rev sam.Cigar
	i, k, layer := m, bestK, bestLayer
	for i > 0 {
		if len(rev) > 0 && rev[len(rev)-1].Op == layer {
			rev[len(rev)-1].Len++
		} else {
			rev = append(rev, sam.CigarOp{Len: 1, Op: layer})
		}
		c := i*stride + k
		switch layer {
		case 'M':
			p := c - stride
			best := M[p]
			if X[p] > best {
				best, layer = X[p], 'I'
			}
			if Y[p] > best {
				layer = 'D'
			}
			i--
		case 'I':
			if p := c - stride + 1; M[p]+gapOpen >= X[p]+gapExt {
				layer = 'M'
			}
			i--
			k++
		case 'D':
			if p := c - 1; M[p]+gapOpen >= Y[p]+gapExt {
				layer = 'M'
			}
			k--
		}
	}
	cigar := make(sam.Cigar, len(rev))
	for c := range rev {
		cigar[c] = rev[len(rev)-1-c]
	}
	// i = 0, so the start column is just the slot's diagonal.
	return fitResult{Score: int(bestScore), RefStart: k - 1 + lo, Cigar: cigar.Normalize()}
}
