package caller

import (
	"math"

	"github.com/gpf-go/gpf/internal/bufpool"
	"github.com/gpf-go/gpf/internal/kernels"
)

// Log-space pair-HMM (the paired-HMM of the paper's HaplotypeCaller
// description): the forward algorithm over match/insert/delete states
// computes P(read | haplotype) with per-base emission probabilities taken
// from the read's quality string. This is the CPU-dominant kernel of the
// Caller phase (Fig 13 shows variant calling as compute-bound), so it gets
// the full profile-driven treatment (see DESIGN.md, "Hot kernels"):
//
//   - pairHMMReference is the original cell-by-cell log-space forward pass,
//     kept verbatim as the equivalence oracle and the
//     kernels.SetEnabled(false) path.
//   - pairHMMHoisted is the reference with the per-row emission logs hoisted
//     out of the inner loop, phredToProb's per-row math.Pow replaced by the
//     256-entry emitTab lookup, and the six rolling DP rows pooled. Each
//     transformation performs the same float64 operations fewer times, so
//     its result is bit-identical to the reference — asserted by
//     TestKernelPairHMMHoistedBitIdentical.
//   - pairHMMScaled is the fast kernel: the same forward recurrence computed
//     in probability space with per-row rescaling (the GATK PairHMM
//     approach), which removes every transcendental from the inner loop —
//     a cell costs a handful of multiply-adds instead of four
//     log-sum-exps. It is not bit-identical to log space (log space itself
//     is the lossy encoding; the scaled pass tracks the true forward
//     probabilities), but agrees to ~1e-12 relative — far below anything
//     the genotyper's likelihood comparisons can observe — and the
//     kernels.SetEnabled(false) ablation is property-tested to keep
//     pipeline output byte-identical.

// HMM transition probabilities (GATK-like defaults).
const (
	gapOpenProb   = 1e-4
	gapExtendProb = 0.1
)

var (
	logMM = math.Log(1 - 2*gapOpenProb)
	logMG = math.Log(gapOpenProb)
	logGG = math.Log(gapExtendProb)
	logGM = math.Log(1 - gapExtendProb)
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

func logSumExp3(a, b, c float64) float64 {
	return logSumExp2(logSumExp2(a, b), c)
}

// defaultQualByte is the Phred+33 byte assumed for read positions beyond the
// end of the quality string (phredToProb's q=30 default).
const defaultQualByte = 30 + 33

// emitEntry is one row of the precomputed emission table: the log and linear
// emission terms for a match and a mismatch at one quality byte.
type emitEntry struct {
	logMatch    float64
	logMismatch float64
	pMatch      float64
	pMismatch   float64
}

// emitTab maps a raw Phred+33 quality byte to its emission terms. Each entry
// is computed with exactly the operations the reference performs per cell —
// phredToProb's int(b)-33 conversion, clamps and math.Pow, then
// math.Log(1-p) / math.Log(p/3) — so a table lookup is bit-identical to the
// reference's per-cell recomputation. Bytes below 33 yield negative Phred
// scores and fall into the same q<2 clamp the reference applies.
var emitTab = func() (t [256]emitEntry) {
	for b := 0; b < 256; b++ {
		p := phredToProb([]byte{byte(b)}, 0)
		t[b] = emitEntry{
			logMatch:    math.Log(1 - p),
			logMismatch: math.Log(p / 3),
			pMatch:      1 - p,
			pMismatch:   p / 3,
		}
	}
	return
}()

// PairHMMLogLikelihood returns ln P(read | hap) under the pair-HMM with
// quality-derived emissions. qual holds Phred+33 bytes parallel to read.
func PairHMMLogLikelihood(read, qual, hap []byte) float64 {
	if !kernels.Enabled() {
		return pairHMMReference(read, qual, hap)
	}
	if len(read) == 0 || len(hap) == 0 {
		return math.Inf(-1)
	}
	rows := bufpool.GetF64(6 * (len(hap) + 1))
	ll := pairHMMScaled(read, qual, hap, rows)
	bufpool.PutF64(rows)
	return ll
}

// PairHMMBatch scores every read against every haplotype, returning
// L[read][hap] = ln P(read | hap). This is the entry point the genotyper
// uses: the read×haplotype likelihood matrix of one active region is
// computed with a single pooled scratch slab reused across all pairs,
// instead of one allocation set per pair. quals is parallel to reads.
func PairHMMBatch(reads, quals [][]byte, haps [][]byte) [][]float64 {
	L := make([][]float64, len(reads))
	if len(reads) == 0 || len(haps) == 0 {
		for i := range L {
			L[i] = make([]float64, len(haps))
		}
		return L
	}
	fast := kernels.Enabled()
	var rows []float64
	if fast {
		maxN := 0
		for _, h := range haps {
			if len(h) > maxN {
				maxN = len(h)
			}
		}
		rows = bufpool.GetF64(6 * (maxN + 1))
		defer bufpool.PutF64(rows)
	}
	for i := range reads {
		L[i] = make([]float64, len(haps))
		for h, hap := range haps {
			switch {
			case !fast:
				L[i][h] = pairHMMReference(reads[i], quals[i], hap)
			case len(reads[i]) == 0 || len(hap) == 0:
				L[i][h] = math.Inf(-1)
			default:
				L[i][h] = pairHMMScaled(reads[i], quals[i], hap, rows[:6*(len(hap)+1)])
			}
		}
	}
	return L
}

// pairHMMReference is the unoptimized log-space forward pass, kept as the
// equivalence oracle for the fast kernels and as the
// kernels.SetEnabled(false) path.
func pairHMMReference(read, qual, hap []byte) float64 {
	m, n := len(read), len(hap)
	if m == 0 || n == 0 {
		return math.Inf(-1)
	}
	negInf := math.Inf(-1)
	// Rolling rows over the haplotype dimension.
	prevM := make([]float64, n+1)
	prevI := make([]float64, n+1)
	prevD := make([]float64, n+1)
	curM := make([]float64, n+1)
	curI := make([]float64, n+1)
	curD := make([]float64, n+1)
	// Initialization: the read may start anywhere on the haplotype (free
	// leading flank): uniform prior over start columns.
	startLog := -math.Log(float64(n))
	for j := 0; j <= n; j++ {
		prevM[j] = negInf
		prevI[j] = negInf
		prevD[j] = negInf
	}
	for i := 1; i <= m; i++ {
		curM[0], curI[0], curD[0] = negInf, negInf, negInf
		errP := phredToProb(qual, i-1)
		for j := 1; j <= n; j++ {
			var emit float64
			if read[i-1] == hap[j-1] && read[i-1] != 'N' {
				emit = math.Log(1 - errP)
			} else {
				emit = math.Log(errP / 3)
			}
			var diag float64
			if i == 1 {
				diag = startLog // start of read anchored at column j
			} else {
				diag = logSumExp3(prevM[j-1]+logMM, prevI[j-1]+logGM, prevD[j-1]+logGM)
			}
			curM[j] = emit + diag
			// Insertion (read base not on haplotype): consumes read only.
			curI[j] = logSumExp2(prevM[j]+logMG, prevI[j]+logGG)
			// Deletion (haplotype base skipped): consumes haplotype only.
			curD[j] = logSumExp2(curM[j-1]+logMG, curD[j-1]+logGG)
		}
		prevM, curM = curM, prevM
		prevI, curI = curI, prevI
		prevD, curD = curD, prevD
	}
	// Free trailing flank: sum over end columns of M and I.
	total := negInf
	for j := 1; j <= n; j++ {
		total = logSumExp2(total, logSumExp2(prevM[j], prevI[j]))
	}
	return total
}

// pairHMMHoisted is the reference with the per-(i,j) emission logs hoisted
// to per-row table lookups and the six rolling rows taken from the caller's
// scratch slab (rows, length ≥ 6*(n+1), contents arbitrary). Every float64
// operation it performs is one the reference performs — just once per row
// or once per process instead of once per cell — so its result is
// bit-identical (asserted by TestKernelPairHMMHoistedBitIdentical).
func pairHMMHoisted(read, qual, hap []byte, rows []float64) float64 {
	m, n := len(read), len(hap)
	if m == 0 || n == 0 {
		return math.Inf(-1)
	}
	negInf := math.Inf(-1)
	w := n + 1
	prevM, prevI, prevD := rows[0:w], rows[w:2*w], rows[2*w:3*w]
	curM, curI, curD := rows[3*w:4*w], rows[4*w:5*w], rows[5*w:6*w]
	startLog := -math.Log(float64(n))
	for j := 0; j <= n; j++ {
		prevM[j] = negInf
		prevI[j] = negInf
		prevD[j] = negInf
	}
	for i := 1; i <= m; i++ {
		curM[0], curI[0], curD[0] = negInf, negInf, negInf
		qb := byte(defaultQualByte)
		if i-1 < len(qual) {
			qb = qual[i-1]
		}
		e := &emitTab[qb]
		logMatch, logMismatch := e.logMatch, e.logMismatch
		rb := read[i-1]
		for j := 1; j <= n; j++ {
			emit := logMismatch
			if rb == hap[j-1] && rb != 'N' {
				emit = logMatch
			}
			var diag float64
			if i == 1 {
				diag = startLog
			} else {
				diag = logSumExp3(prevM[j-1]+logMM, prevI[j-1]+logGM, prevD[j-1]+logGM)
			}
			curM[j] = emit + diag
			curI[j] = logSumExp2(prevM[j]+logMG, prevI[j]+logGG)
			curD[j] = logSumExp2(curM[j-1]+logMG, curD[j-1]+logGG)
		}
		prevM, curM = curM, prevM
		prevI, curI = curI, prevI
		prevD, curD = curD, prevD
	}
	total := negInf
	for j := 1; j <= n; j++ {
		total = logSumExp2(total, logSumExp2(prevM[j], prevI[j]))
	}
	return total
}

// scaledRescaleBelow triggers a row rescale in pairHMMScaled: when the row
// maximum falls below it, the whole row is renormalized and the factor moved
// into logScale, keeping every cell far from the float64 underflow cliff.
// 1e-260 leaves ~48 decades of headroom above the smallest normal float64,
// more than any single row transition can consume.
const scaledRescaleBelow = 1e-260

// pairHMMScaled is the fast pair-HMM kernel: the same forward recurrence as
// the reference, computed on probabilities with per-row rescaling instead of
// in log space. One cell costs six multiply-adds — no math.Log, math.Exp or
// math.Log1p — which is where the kernel's ~30x over the reference comes
// from. rows is caller scratch of length ≥ 6*(n+1), arbitrary contents.
func pairHMMScaled(read, qual, hap []byte, rows []float64) float64 {
	m, n := len(read), len(hap)
	if m == 0 || n == 0 {
		return math.Inf(-1)
	}
	w := n + 1
	prevM, prevI, prevD := rows[0:w], rows[w:2*w], rows[2*w:3*w]
	curM, curI, curD := rows[3*w:4*w], rows[4*w:5*w], rows[5*w:6*w]
	for j := 0; j <= n; j++ {
		prevM[j] = 0
		prevI[j] = 0
		prevD[j] = 0
	}
	logScale := 0.0
	start := 1 / float64(n) // uniform prior over start columns
	for i := 1; i <= m; i++ {
		curM[0], curI[0], curD[0] = 0, 0, 0
		qb := byte(defaultQualByte)
		if i-1 < len(qual) {
			qb = qual[i-1]
		}
		e := &emitTab[qb]
		pMatch, pMismatch := e.pMatch, e.pMismatch
		rb := read[i-1]
		rowMax := 0.0
		if i == 1 {
			for j := 1; j <= n; j++ {
				emit := pMismatch
				if rb == hap[j-1] && rb != 'N' {
					emit = pMatch
				}
				mv := emit * start
				curM[j] = mv
				curI[j] = 0
				curD[j] = curM[j-1]*probMG + curD[j-1]*probGG
				if mv > rowMax {
					rowMax = mv
				}
			}
		} else {
			for j := 1; j <= n; j++ {
				emit := pMismatch
				if rb == hap[j-1] && rb != 'N' {
					emit = pMatch
				}
				mv := emit * (prevM[j-1]*probMM + (prevI[j-1]+prevD[j-1])*probGM)
				iv := prevM[j]*probMG + prevI[j]*probGG
				curM[j] = mv
				curI[j] = iv
				curD[j] = curM[j-1]*probMG + curD[j-1]*probGG
				if mv > rowMax {
					rowMax = mv
				}
				if iv > rowMax {
					rowMax = iv
				}
			}
		}
		if rowMax > 0 && rowMax < scaledRescaleBelow {
			inv := 1 / rowMax
			for j := 1; j <= n; j++ {
				curM[j] *= inv
				curI[j] *= inv
				curD[j] *= inv
			}
			logScale += math.Log(rowMax)
		}
		prevM, curM = curM, prevM
		prevI, curI = curI, prevI
		prevD, curD = curD, prevD
	}
	// Free trailing flank: sum over end columns of M and I.
	total := 0.0
	for j := 1; j <= n; j++ {
		total += prevM[j] + prevI[j]
	}
	if total == 0 {
		return math.Inf(-1)
	}
	return math.Log(total) + logScale
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
