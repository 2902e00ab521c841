package caller

import (
	"math"
	"slices"

	"github.com/gpf-go/gpf/internal/bufpool"
)

// Pair-HMM (the paired-HMM of the paper's HaplotypeCaller description): the
// forward algorithm over match/insert/delete states computes
// P(read | haplotype) with per-base emission probabilities taken from the
// read's quality string. This is the CPU-dominant kernel of the Caller phase
// (Fig 13 shows variant calling as compute-bound), so it gets the full
// profile-driven treatment (see DESIGN.md, "Hot kernels"):
//
//   - pairHMMLanes is the kernel: the forward recurrence computed in
//     probability space with per-row rescaling (the GATK PairHMM approach),
//     which removes every transcendental from the inner loop, for hmmLanes
//     reads at once so their independent recurrences overlap in the
//     pipeline.
//   - Its two oracles live in pairhmm_test.go. pairHMMReference is the
//     original cell-by-cell log-space forward pass; the kernel is not
//     bit-identical to it (log space itself is the lossy encoding; the scaled
//     pass tracks the true forward probabilities) but agrees to ~1e-12
//     relative — far below anything the genotyper's likelihood comparisons
//     can observe, and TestKernelCallVariantsGolden pins the VCF bytes the
//     log-space caller wrote. pairHMMScaled is the one-read scalar kernel the
//     lanes replaced; each lane is bit-identical to it.

// HMM transition probabilities (GATK-like defaults).
const (
	gapOpenProb   = 1e-4
	gapExtendProb = 0.1
)

// Linear-space transition probabilities for the scaled kernel.
const (
	probMM = 1 - 2*gapOpenProb
	probMG = gapOpenProb
	probGG = gapExtendProb
	probGM = 1 - gapExtendProb
)

// logSumExp2 returns log(exp(a)+exp(b)) stably.
func logSumExp2(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// defaultQualByte is the Phred+33 byte assumed for read positions beyond the
// end of the quality string (phredToProb's q=30 default).
const defaultQualByte = 30 + 33

// emitEntry is one row of the precomputed emission table: the emission
// probabilities for a match and a mismatch at one quality byte.
type emitEntry struct {
	pMatch    float64
	pMismatch float64
}

// emitTab maps a raw Phred+33 quality byte to its emission terms. Each entry
// is computed with exactly the operations the reference performs per cell —
// phredToProb's int(b)-33 conversion, clamps and math.Pow, then 1-p and p/3 —
// so a table lookup is bit-identical to the per-cell recomputation
// (TestEmitTabMatchesPhredToProb). Bytes below 33 yield negative Phred scores
// and fall into the same q<2 clamp the reference applies.
var emitTab = func() (t [256]emitEntry) {
	for b := 0; b < 256; b++ {
		p := phredToProb([]byte{byte(b)}, 0)
		t[b] = emitEntry{pMatch: 1 - p, pMismatch: p / 3}
	}
	return
}()

// PairHMMLogLikelihood returns ln P(read | hap) under the pair-HMM with
// quality-derived emissions. qual holds Phred+33 bytes parallel to read.
func PairHMMLogLikelihood(read, qual, hap []byte) float64 {
	return PairHMMBatch([][]byte{read}, [][]byte{qual}, [][]byte{hap})[0][0]
}

// PairHMMBatch scores every read against every haplotype, returning
// L[read][hap] = ln P(read | hap). This is the entry point the genotyper
// uses: the read×haplotype likelihood matrix of one active region is one
// slab, scored hmmLanes reads per kernel pass off one
// pooled DP row. Reads are grouped in length order so the lanes of a pass
// end within a few rows of each other; the grouping cannot show in L because
// each lane's arithmetic is independent of its neighbours. quals is parallel
// to reads.
func PairHMMBatch(reads, quals [][]byte, haps [][]byte) [][]float64 {
	L := make([][]float64, len(reads))
	slab := make([]float64, len(reads)*len(haps))
	for i := range L {
		L[i] = slab[i*len(haps) : (i+1)*len(haps) : (i+1)*len(haps)]
	}
	// Zero-length reads and haplotypes score -Inf and never enter a lane.
	for i := range slab {
		slab[i] = math.Inf(-1)
	}
	order := make([]int, 0, len(reads))
	for i, r := range reads {
		if len(r) > 0 {
			order = append(order, i)
		}
	}
	if len(order) == 0 {
		return L
	}
	slices.SortFunc(order, func(a, b int) int { return len(reads[a]) - len(reads[b]) })
	maxN := 0
	for _, h := range haps {
		maxN = max(maxN, len(h))
	}
	rows := bufpool.GetF64(3 * hmmLanes * (len(reads[order[len(order)-1]]) + maxN))
	defer bufpool.PutF64(rows)
	for h, hap := range haps {
		if len(hap) == 0 {
			continue
		}
		for g := 0; g < len(order); g += hmmLanes {
			// A short last group repeats its final read; the copies' results
			// are dropped.
			var rd, ql [hmmLanes][]byte
			var ll [hmmLanes]float64
			for l := range rd {
				i := order[min(g+l, len(order)-1)]
				rd[l], ql[l] = reads[i], quals[i]
			}
			pairHMMLanes(&rd, &ql, hap, rows, &ll)
			for l := 0; l < hmmLanes && g+l < len(order); l++ {
				L[order[g+l]][h] = ll[l]
			}
		}
	}
	return L
}

// scaledRescaleBelow triggers a row rescale in pairHMMLanes: when the row
// maximum falls below it, the whole row is renormalized and the factor moved
// into logScale, keeping every cell far from the float64 underflow cliff.
// 1e-260 leaves ~48 decades of headroom above the smallest normal float64,
// more than any single row transition can consume.
const scaledRescaleBelow = 1e-260

// hmmLanes is the number of reads pairHMMLanes scores per pass. One lane is
// bound by the latency of its own multiply-add chain; four independent ones
// fill the floating-point ports, and their carried cells still fit the
// register file, which eight do not (measured at 2, 4 and 8: EXPERIMENTS.md,
// "Caller fast paths").
const hmmLanes = 4

// laneShrink bounds how far a row's maximum can fall below the previous
// row's: the I cell under that maximum receives it times probMG (from M) or
// probGG (from I), plus a non-negative term, and float64 rounding is
// monotone. The further factor of two is margin, not part of the argument.
const laneShrink = probMG / 2

// pairHMMLanes is the fast pair-HMM kernel: the same forward recurrence as
// the reference, computed on probabilities with per-row rescaling instead of
// in log space — a cell is seven multiplies and four adds, no math.Log,
// math.Exp or math.Log1p — for hmmLanes reads against one haplotype at once.
// The DP row is column-major with the lane innermost (per column: M of every
// lane, then I, then D), so the lanes' recurrences are independent
// instruction streams over adjacent memory. Every read and hap must be
// non-empty; rows is caller scratch of length ≥ 3*hmmLanes*(longest read +
// len(hap)), arbitrary contents; ll[l] receives ln P(reads[l] | hap).
//
// Each lane performs exactly the float64 operations of the one-read kernel
// it replaced (pairHMMScaled in pairhmm_test.go), in the same order and
// expression shapes, so its result is bit-identical by construction. That
// kernel tracked each row's maximum in the cell loop and renormalized the
// row when 0 < max < scaledRescaleBelow; here the loop carries no maximum.
// Instead lb[l] ≤ (lane l's row maximum) is maintained by one multiply per
// row (laneShrink), and only when lb[l] can no longer rule a rescale out is
// the row scanned for its exact maximum and the scalar test applied to it —
// the same rows rescale by the same factors.
func pairHMMLanes(reads, quals *[hmmLanes][]byte, hap []byte, rows []float64, ll *[hmmLanes]float64) {
	const (
		K = hmmLanes
		W = 3 * K // floats per column
	)
	n := len(hap)
	lastRow := 0
	for l := range reads {
		lastRow = max(lastRow, len(reads[l]))
	}
	// One DP row, updated in place: row i keeps its column j in slot
	// lastRow-i+j, one slot left of where row i-1 kept it, so cell (i,j)
	// overwrites its diagonal (i-1,j-1) — dead once read — and still finds
	// (i-1,j) beside it. The slots that serve as column 0 are zeroed here and
	// never written.
	rows = rows[:W*(lastRow+n)]
	clear(rows[:W*lastRow])
	// emit[l][hb] is lane l's emission against haplotype byte hb in the
	// current row — pMatch where hb is the read base and not 'N', pMismatch
	// otherwise — so the cell loop selects by load, not by branch. Only the
	// entries of bytes that occur in hap are kept up to date.
	var (
		emit     [K][256]float64
		alphabet = make([]byte, 0, 256) // the distinct bytes of hap
		lb       [K]float64             // zero: row 1 is always scanned
		logScale [K]float64
	)
	for _, hb := range hap {
		if emit[0][hb] == 0 { // not seen yet; row 1 overwrites the mark
			emit[0][hb] = 1
			alphabet = append(alphabet, hb)
		}
	}
	start := 1 / float64(n) // uniform prior over start columns
	for i := 1; i <= lastRow; i++ {
		for l := range reads {
			if i > len(reads[l]) {
				continue // ended: its emissions and cells are zero from here on
			}
			qb := byte(defaultQualByte)
			if i-1 < len(quals[l]) {
				qb = quals[l][i-1]
			}
			e := &emitTab[qb]
			for _, hb := range alphabet {
				emit[l][hb] = e.pMismatch
			}
			if rb := reads[l][i-1]; rb != 'N' {
				emit[l][rb] = e.pMatch
			}
		}
		row := rows[W*(lastRow-i):] // opens on column 0 of row i
		if i == 1 {
			var leftM, leftD [K]float64
			for j, hb := range hap {
				c := (*[W]float64)(row[(j+1)*W:])
				for l := 0; l < K; l++ {
					mv := emit[l][hb] * start
					dv := leftM[l]*probMG + leftD[l]*probGG
					c[l], c[K+l], c[2*K+l] = mv, 0, dv
					leftM[l], leftD[l] = mv, dv
				}
			}
		} else {
			// The lane loop written out, so that each lane's left neighbours
			// stay in registers.
			const _ = uint(K-4) + uint(4-K) // written out for four lanes
			e0, e1, e2, e3 := &emit[0], &emit[1], &emit[2], &emit[3]
			var m0, m1, m2, m3, d0, d1, d2, d3 float64 // M and D of column j-1
			at := row[W:]
			for _, hb := range hap {
				// c[:W] is the diagonal and becomes this cell; c[W:] is up.
				c := (*[2 * W]float64)(at)
				at = at[W:]
				d0 = m0*probMG + d0*probGG
				d1 = m1*probMG + d1*probGG
				d2 = m2*probMG + d2*probGG
				d3 = m3*probMG + d3*probGG
				m0 = e0[hb] * (c[0]*probMM + (c[K]+c[2*K])*probGM)
				m1 = e1[hb] * (c[1]*probMM + (c[K+1]+c[2*K+1])*probGM)
				m2 = e2[hb] * (c[2]*probMM + (c[K+2]+c[2*K+2])*probGM)
				m3 = e3[hb] * (c[3]*probMM + (c[K+3]+c[2*K+3])*probGM)
				c[0], c[K], c[2*K] = m0, c[W]*probMG+c[W+K]*probGG, d0
				c[1], c[K+1], c[2*K+1] = m1, c[W+1]*probMG+c[W+K+1]*probGG, d1
				c[2], c[K+2], c[2*K+2] = m2, c[W+2]*probMG+c[W+K+2]*probGG, d2
				c[3], c[K+3], c[2*K+3] = m3, c[W+3]*probMG+c[W+K+3]*probGG, d3
			}
		}
		for l := range reads {
			if lb[l] *= laneShrink; lb[l] < scaledRescaleBelow {
				rowMax := 0.0
				for j := 1; j <= n; j++ {
					rowMax = max(rowMax, row[j*W+l], row[j*W+K+l])
				}
				if rowMax > 0 && rowMax < scaledRescaleBelow {
					inv := 1 / rowMax
					for j := 1; j <= n; j++ {
						row[j*W+l] *= inv
						row[j*W+K+l] *= inv
						row[j*W+2*K+l] *= inv
					}
					logScale[l] += math.Log(rowMax)
					rowMax *= inv
				}
				lb[l] = rowMax
			}
			if i != len(reads[l]) {
				continue
			}
			// Last row of this lane. Free trailing flank: sum over end
			// columns of M and I; then zero the lane so the rows it idles
			// through stay exact zeros instead of decaying into denormals.
			total := 0.0
			for j := 1; j <= n; j++ {
				total += row[j*W+l] + row[j*W+K+l]
				row[j*W+l], row[j*W+K+l], row[j*W+2*K+l] = 0, 0, 0
			}
			ll[l] = math.Inf(-1)
			if total != 0 {
				ll[l] = math.Log(total) + logScale[l]
			}
			for _, hb := range alphabet {
				emit[l][hb] = 0
			}
			lb[l] = math.Inf(1)
		}
	}
}

// phredToProb converts the Phred+33 quality byte at read position i to a
// base error probability, following GATK's conventions:
//
//   - Positions beyond the quality string default to Phred 30 (the common
//     "missing quality" stand-in, 1e-3 error).
//   - Qualities below Phred 2 are clamped up to 2: sequencers emit 0/1 as
//     "no call" markers, not calibrated probabilities, and a literal Phred 0
//     would mean p=1 — a base guaranteed wrong, which would let a single
//     marker byte veto an otherwise perfect alignment (GATK applies the same
//     floor as its minimum usable quality).
//   - The error probability is capped at 0.25: with a 4-letter alphabet a
//     base conveys no information once all four calls are equally likely, so
//     probabilities past 1/4 would overstate the evidence against a match
//     (bytes below 33 — malformed Phred+33 input — land here via the q<2
//     clamp and are treated as nearly information-free rather than
//     rejected).
func phredToProb(qual []byte, i int) float64 {
	q := 30.0
	if i < len(qual) {
		q = float64(int(qual[i]) - 33)
	}
	if q < 2 {
		q = 2
	}
	p := math.Pow(10, -q/10)
	if p > 0.25 {
		p = 0.25
	}
	return p
}
