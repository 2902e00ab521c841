package align

import "github.com/gpf-go/gpf/internal/sam"

// Certified ungapped extension (see DESIGN.md, "Hot kernels"). Nearly every
// fit the aligner, the realigner and the genotyper ask for ends as a pure
// mM placement; the DP fills (m+1)×(n+1) cells to rediscover it. A mismatch
// scan over the n−m+1 start diagonals finds the same placement, and the
// scores prove no other path can tie it:
//
//   - a path with any gap scores at most m·Match + GapOpen, since it matches
//     at most m read bases and pays for at least one gap open;
//   - the ungapped diagonal with x mismatches scores m·Match − x·(Match −
//     Mismatch), which is strictly more whenever x ≤ maxX, the largest x
//     with x·(Match − Mismatch) < −GapOpen (1 under default scoring);
//   - every other ungapped diagonal has strictly more mismatches, so
//     strictly less score.
//
// The diagonal is therefore the unique optimum of the full Gotoh matrix. A
// DP cell holds the best score of any path reaching it, so a tie anywhere in
// the full DP's end-cell scan or traceback would be a second path with the
// optimal score; there is none, and no tie-break order can pick anything but
// this path. When two diagonals share the minimum, or the minimum exceeds
// maxX, the scan proves nothing and the caller runs the DP.

// fitAlignUngapped returns the fit of read into window when it is certified
// to be an ungapped placement, and ok=false when the DP has to decide.
func fitAlignUngapped(read, window []byte, sc Scoring) (fit fitResult, ok bool) {
	m, n := len(read), len(window)
	if m == 0 || n < m || sc.Match <= 0 || sc.Mismatch > 0 || sc.GapOpen >= 0 || sc.GapExtend > 0 {
		return fitResult{}, false
	}
	// limit is the mismatch count a diagonal must not exceed to matter:
	// maxX until one qualifies, the best count seen from then on.
	limit := (-sc.GapOpen - 1) / (sc.Match - sc.Mismatch)
	best, tie := -1, false
	for d := 0; d+m <= n; d++ {
		w := window[d : d+m]
		x := 0
		for i, rb := range read {
			if rb != w[i] || rb == 'N' {
				if x++; x > limit {
					break
				}
			}
		}
		switch {
		case x > limit:
		case x < limit || best < 0:
			limit, best, tie = x, d, false
		default:
			tie = true
		}
	}
	if best < 0 || tie {
		return fitResult{}, false
	}
	return fitResult{
		Score:    (m-limit)*sc.Match + limit*sc.Mismatch,
		RefStart: best,
		Cigar:    sam.Cigar{{Len: m, Op: 'M'}},
	}, true
}
