package caller

import (
	"bytes"
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
//     probability space from a 2^hmmStartExp start (GATK PairHMM's initial
//     condition), with no rescaling and no transcendental in the loop, for
//     hmmLanes reads at once so their independent recurrences overlap in the
//     pipeline.
//   - PairHMMBatch passes the haplotypes in lexicographic order, each
//     resuming from a checkpoint of the DP column where it stops sharing a
//     prefix with the haplotype before it (hmmPlan).
//   - pairHMMReference, the original cell-by-cell log-space forward pass, is
//     the one slow path: it rescores the pairs whose total the kernel cannot
//     certify (hmmFloor) and any haplotype over hmmMaxHap. The kernel is not
//     bit-identical to it (log space itself is the lossy encoding; the
//     kernel tracks the true forward probabilities) but agrees to ~1e-14
//     relative — far below anything the genotyper's likelihood comparisons
//     can observe, and TestKernelCallVariantsGolden pins the VCF bytes the
//     log-space caller wrote. Its bit-identity oracle is unscaledTotal in
//     pairhmm_test.go, the one-read scalar form of the lanes.

// HMM transition probabilities (GATK-like defaults).
const (
	gapOpenProb   = 1e-4
	gapExtendProb = 0.1
)

// Linear-space transition probabilities for the kernel.
const (
	probMM = 1 - 2*gapOpenProb
	probMG = gapOpenProb
	probGG = gapExtendProb
	probGM = 1 - gapExtendProb
)

// Log-space transition probabilities for pairHMMReference.
var (
	logMM = math.Log(1 - 2*gapOpenProb)
	logMG = math.Log(gapOpenProb)
	logGG = math.Log(gapExtendProb)
	logGM = math.Log(1 - gapExtendProb)
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

// The kernel's start: row 1's M cells begin at 2^hmmStartExp instead of the
// uniform prior 1/n, and hmmLogLikelihood takes hmmStartExp·ln 2 + ln n back
// off. A forward value is 2^hmmStartExp times a sum over the n start columns
// of one event's probability — being in that state with the read's first i
// bases emitted — so it is at most n·2^hmmStartExp; so is the total, whose
// events (ending in M or I at column j) are disjoint for one start. For
// n ≤ hmmMaxHap = 2^22 that is at most 2^1022, a factor four under the
// largest float64: nothing overflows and no row is rescaled. A constant start
// also makes DP column j a function of hap[:j], the reads and their qualities
// alone, which is what lets one haplotype resume from another's column.
const (
	hmmStartExp = 1000
	hmmMaxHap   = 1 << 22
)

// hmmFloor is the certificate: a lane total at or above it is its pair's
// likelihood to float64 accuracy; below it hmmLogLikelihood rescores the pair
// with pairHMMReference. Without rescaling the one loss is underflow. A cell
// below 2^-1022 is subnormal, where a rounding error is absolute, up to
// 2^-1075 per operation. The total is linear in every cell, with the
// backward variable — the probability of emitting the rest of the read from
// that state — as coefficient, and that is at most 1; so the eleven
// operations of each of the m·n cells add at most 11·m·n·2^-1075 < m·n·2^-1071
// to the total. Above 2^-960 that is a relative error under m·n·2^-111, below
// half an ulp (2^-53) while m·n < 2^58 — any read shorter than 2^36 bases
// against any haplotype hmmMaxHap admits. Normal cells round relatively, as
// in any float64 forward pass.
var hmmFloor = math.Ldexp(1, -960)

// hmmLogLikelihood turns the kernel's total for read against hap into
// ln P(read | hap) = ln(total) − hmmStartExp·ln 2 − ln n, taking the exponent
// off with Frexp so ln(total) ≈ 700 and the start's log do not cancel in
// rounding — or, where the certificate refuses, the reference's value.
func hmmLogLikelihood(total float64, read, qual, hap []byte) float64 {
	if total < hmmFloor {
		return pairHMMReference(read, qual, hap)
	}
	f, e := math.Frexp(total)
	return math.Log(f) + float64(e-hmmStartExp)*math.Ln2 - math.Log(float64(len(hap)))
}

// PairHMMBatch scores every read against every haplotype, returning
// L[read][hap] = ln P(read | hap). This is the entry point the genotyper
// uses: the read×haplotype likelihood matrix of one active region is one
// slab, scored hmmLanes reads per kernel pass off one pooled DP row. Reads are
// grouped in length order so the lanes of a pass end within a few rows of each
// other; the grouping cannot show in L because each lane's arithmetic is
// independent of its neighbours. Each group passes the haplotypes in the
// order of hmmPlan, resuming each from a checkpoint column of an earlier one;
// a resumed column has the bits of the one it replaces, so neither can the
// reuse. quals is parallel to reads.
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
	hs := make([]int, 0, len(haps))
	maxN := 0
	for h, hap := range haps {
		switch {
		case len(hap) > hmmMaxHap: // past the overflow bound
			for _, i := range order {
				L[i][h] = pairHMMReference(reads[i], quals[i], hap)
			}
		case len(hap) > 0:
			hs = append(hs, h)
			maxN = max(maxN, len(hap))
		}
	}
	if len(hs) == 0 {
		return L
	}
	passes, dups, cks := hmmPlan(haps, hs)
	const W = 3 * hmmLanes
	maxM := len(reads[order[len(order)-1]])
	rows := bufpool.GetF64(W * (maxM + maxN))
	defer bufpool.PutF64(rows)
	// The checkpoints are not pooled, so what the pool keeps between
	// regions stays one DP row.
	ckBuf := make([]float64, len(cks)*W*maxM)
	for c, ck := range cks {
		ck.cells = ckBuf[c*W*maxM : (c+1)*W*maxM]
	}
	for g := 0; g < len(order); g += hmmLanes {
		// A short last group repeats its final read; the copies' results
		// are dropped.
		var rd, ql [hmmLanes][]byte
		for l := range rd {
			i := order[min(g+l, len(order)-1)]
			rd[l], ql[l] = reads[i], quals[i]
		}
		for _, ps := range passes {
			hap := haps[ps.hap]
			var total [hmmLanes]float64
			pairHMMLanes(&rd, &ql, hap, ps.from, ps.saves, rows, &total)
			for l := 0; l < hmmLanes && g+l < len(order); l++ {
				i := order[g+l]
				L[i][ps.hap] = hmmLogLikelihood(total[l], reads[i], quals[i], hap)
			}
		}
	}
	for _, d := range dups {
		for _, i := range order {
			L[i][d.hap] = L[i][d.of]
		}
	}
	return L
}

// hmmColumn is a checkpoint: DP column col of one lane group — M, I and D of
// every lane at rows 1…lastRow, row r at cells[3*hmmLanes*(lastRow−r):], the
// slots pairHMMLanes's row buffer keeps its first column in — and each lane's
// flank sum through column col at its last row.
type hmmColumn struct {
	col   int
	cells []float64
	flank [hmmLanes]float64
}

// hmmPass is one haplotype's kernel pass: it resumes from the checkpoint from
// (nil: column 0) and fills the checkpoints saves, in ascending column order.
type hmmPass struct {
	hap   int
	from  *hmmColumn
	saves []*hmmColumn
}

// hmmDup is a haplotype equal to haplotype of, whose scores it copies.
type hmmDup struct{ hap, of int }

// hmmPlan sorts the non-empty haplotypes hs lexicographically and plans one
// pass for each distinct one. In sorted order the longest common prefix of
// hs[a] and hs[k] (a < k) is the least of the prefixes each adjacent pair
// between them shares, so hs[k]'s predecessor shares the longest prefix of
// any earlier haplotype, of length pre[k]. Pass k computes columns
// pre[k]+1…n from a checkpoint of column pre[k], filled by the latest earlier
// pass j with pre[j] < pre[k]: the passes between j and k all start at or
// past column pre[k], so they and hs[j] share hs[k]'s first pre[k] bases, and
// j was the last to compute that column rather than resume past it. A
// haplotype equal to its predecessor (pre[k] = n) has no pass. cks lists the
// checkpoints, distinct by (filling pass, column), for the caller to give
// storage.
func hmmPlan(haps [][]byte, hs []int) (passes []hmmPass, dups []hmmDup, cks []*hmmColumn) {
	slices.SortStableFunc(hs, func(a, b int) int { return bytes.Compare(haps[a], haps[b]) })
	pre := make([]int, len(hs))
	at := make([]int, len(hs)) // index in passes of hs[k]'s pass
	for k, h := range hs {
		hap := haps[h]
		if k > 0 {
			prev := haps[hs[k-1]]
			for pre[k] < len(prev) && pre[k] < len(hap) && prev[pre[k]] == hap[pre[k]] {
				pre[k]++
			}
			if pre[k] == len(hap) { // a prefix of its predecessor, so equal to it
				dups = append(dups, hmmDup{hap: h, of: hs[k-1]})
				continue
			}
		}
		p, ps := pre[k], hmmPass{hap: h}
		if p > 0 {
			// pre[0] = 0 < p stops the scan; a duplicate j in between has
			// pre[j] = its length ≥ p, so the scan passes it.
			j := k - 1
			for pre[j] >= p {
				j--
			}
			src := &passes[at[j]]
			for _, ck := range src.saves {
				if ck.col == p {
					ps.from = ck
				}
			}
			if ps.from == nil {
				ps.from = &hmmColumn{col: p}
				cks = append(cks, ps.from)
				src.saves = append(src.saves, ps.from)
			}
		}
		at[k] = len(passes)
		passes = append(passes, ps)
	}
	for _, ps := range passes {
		slices.SortFunc(ps.saves, func(a, b *hmmColumn) int { return a.col - b.col })
	}
	return passes, dups, cks
}

// hmmLanes is the number of reads pairHMMLanes scores per pass. One lane is
// bound by the latency of its own multiply-add chain; four independent ones
// fill the floating-point ports, and their carried cells still fit the
// register file, which eight do not (measured at 2, 4 and 8: EXPERIMENTS.md,
// "Caller fast paths").
const hmmLanes = 4

// pairHMMLanes is the pair-HMM kernel: the same forward recurrence as the
// reference, computed unscaled on probabilities instead of in log space — a
// cell is seven multiplies and four adds, no math.Log, math.Exp or math.Log1p
// — for hmmLanes reads against one haplotype at once. The DP row is
// column-major with the lane innermost (per column: M of every lane, then I,
// then D), so the lanes' recurrences are independent instruction streams over
// adjacent memory. It computes columns from.col+1…len(hap) from the
// checkpoint from (nil: column 0, all zeros), filling each checkpoint of
// saves (ascending columns, each in (from.col, len(hap)], storage for
// 3*hmmLanes*longest read cells) as it passes. Every read and hap must be
// non-empty; rows is caller scratch of length ≥ 3*hmmLanes*(longest read +
// len(hap)), arbitrary contents; total[l] receives lane l's forward total,
// for hmmLogLikelihood.
//
// Each lane performs exactly the float64 operations of the one-read scalar
// kernel (unscaledTotal in pairhmm_test.go), in the same order and
// expression shapes, so its total is bit-identical by construction. A
// resumed column is a copy of the column the filling pass computed, and the
// flank sum carries on from that pass's partial sum, so the total also has
// the bits of a pass from column 0.
func pairHMMLanes(reads, quals *[hmmLanes][]byte, hap []byte, from *hmmColumn, saves []*hmmColumn, rows []float64, total *[hmmLanes]float64) {
	const (
		K = hmmLanes
		W = 3 * K // floats per column
	)
	lastRow := 0
	for l := range reads {
		lastRow = max(lastRow, len(reads[l]))
	}
	// One DP row, updated in place: row i keeps its column j in slot
	// lastRow-i+j, one slot left of where row i-1 kept it, so cell (i,j)
	// overwrites its diagonal (i-1,j-1) — dead once read — and still finds
	// (i-1,j) beside it. Columns count from the resumed one, p: its rows are
	// copied in here, row i in slot lastRow-i, where row i reads its left
	// neighbours and row i+1 its first diagonal before overwriting it.
	p := 0
	var flank [K]float64
	if from != nil {
		p, flank = from.col, from.flank
		copy(rows[:W*lastRow], from.cells)
	} else {
		clear(rows[:W*lastRow])
	}
	hap = hap[p:]
	n := len(hap)
	rows = rows[:W*(lastRow+n)]
	// emit[l][hb] is lane l's emission against haplotype byte hb in the
	// current row — pMatch where hb is the read base and not 'N', pMismatch
	// otherwise — so the cell loop selects by load, not by branch. Only the
	// entries of bytes that occur in hap are kept up to date.
	var (
		emit     [K][256]float64
		alphabet = make([]byte, 0, 256) // the distinct bytes of hap
	)
	for _, hb := range hap {
		if emit[0][hb] == 0 { // not seen yet; row 1 overwrites the mark
			emit[0][hb] = 1
			alphabet = append(alphabet, hb)
		}
	}
	start := math.Ldexp(1, hmmStartExp)
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
		row := rows[W*(lastRow-i):] // opens on column p of row i
		if i == 1 {
			var leftM, leftD [K]float64
			for l := range leftM {
				leftM[l], leftD[l] = row[l], row[2*K+l]
			}
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
			m0, m1, m2, m3 := row[0], row[1], row[2], row[3] // M and D of column j-1
			d0, d1, d2, d3 := row[2*K], row[2*K+1], row[2*K+2], row[2*K+3]
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
		for _, ck := range saves {
			copy(ck.cells[W*(lastRow-i):][:W], row[W*(ck.col-p):])
		}
		for l := range reads {
			if i != len(reads[l]) {
				continue
			}
			// Last row of this lane. Free trailing flank: sum over end
			// columns of M and I, on from the resumed column's sum, leaving
			// each checkpoint the sum through its column. Then zero the lane,
			// so the rows it idles through compute on exact zeros: left
			// alone, its I cells would shrink by probGG a row and, under a
			// long enough neighbour, reach the subnormals, slow on most FPUs.
			t, s := flank[l], 0
			for j := 1; j <= n; j++ {
				t += row[j*W+l] + row[j*W+K+l]
				row[j*W+l], row[j*W+K+l], row[j*W+2*K+l] = 0, 0, 0
				if s < len(saves) && saves[s].col == p+j {
					saves[s].flank[l] = t
					s++
				}
			}
			total[l] = t
			for _, hb := range alphabet {
				emit[l][hb] = 0
			}
		}
	}
}

// pairHMMReference is the unoptimized log-space forward pass the caller
// shipped before the probability-space kernel. It stays in production as the
// fallback for the pairs that kernel cannot certify (hmmLogLikelihood), and
// is its accuracy oracle.
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
