package caller

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/gpf-go/gpf/internal/bufpool"
)

// randomHMMCase builds a (read, qual, hap) triple: a haplotype, a read copied
// from a random window of it, then mutated with substitutions and indels.
func randomHMMCase(rng *rand.Rand, maxHap, maxRead int) (read, qual, hap []byte) {
	bases := []byte("ACGT")
	n := 10 + rng.Intn(maxHap-10)
	hap = make([]byte, n)
	for i := range hap {
		hap[i] = bases[rng.Intn(4)]
	}
	m := 5 + rng.Intn(maxRead-5)
	if m > n {
		m = n
	}
	off := rng.Intn(n - m + 1)
	read = append([]byte(nil), hap[off:off+m]...)
	// Mutations: substitutions, occasional N, occasional indel.
	for i := range read {
		switch r := rng.Float64(); {
		case r < 0.05:
			read[i] = bases[rng.Intn(4)]
		case r < 0.07:
			read[i] = 'N'
		}
	}
	if rng.Float64() < 0.3 && len(read) > 4 {
		cut := 1 + rng.Intn(3)
		at := rng.Intn(len(read) - cut)
		read = append(read[:at], read[at+cut:]...)
	}
	qual = make([]byte, len(read))
	for i := range qual {
		qual[i] = byte(33 + rng.Intn(42)) // Phred 0..41
	}
	// Sometimes drop trailing quals to exercise the missing-qual default.
	if rng.Float64() < 0.2 {
		qual = qual[:len(qual)/2]
	}
	return read, qual, hap
}

// Log-space transition probabilities for pairHMMReference.
var (
	logMM = math.Log(1 - 2*gapOpenProb)
	logMG = math.Log(gapOpenProb)
	logGG = math.Log(gapExtendProb)
	logGM = math.Log(1 - gapExtendProb)
)

func logSumExp3(a, b, c float64) float64 {
	return logSumExp2(logSumExp2(a, b), c)
}

// pairHMMReference is the unoptimized log-space forward pass the caller
// shipped before the probability-space kernels, kept verbatim as their
// equivalence oracle.
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

// oracleRescales counts the rows pairHMMScaled has renormalized.
var oracleRescales int

// pairHMMScaled is the one-read probability-space kernel pairHMMLanes
// replaced, kept verbatim (plus the rescale counter) as its bit-identity
// oracle: the forward recurrence on probabilities, the row maximum tracked in
// the cell loop, the row renormalized when it falls below scaledRescaleBelow.
// rows is caller scratch of length ≥ 6*(n+1), arbitrary contents.
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
			oracleRescales++
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

// TestKernelPairHMMScaledEquivalence checks the scaled linear-space kernel
// against the log-space reference to tight relative tolerance across random
// cases, including long reads where rescaling must engage.
func TestKernelPairHMMScaledEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	worst := 0.0
	for c := 0; c < 500; c++ {
		read, qual, hap := randomHMMCase(rng, 400, 300)
		want := pairHMMReference(read, qual, hap)
		rows := bufpool.GetF64(6 * (len(hap) + 1))
		got := pairHMMScaled(read, qual, hap, rows)
		bufpool.PutF64(rows)
		rel := math.Abs(got-want) / math.Abs(want)
		if rel > worst {
			worst = rel
		}
		if rel > 1e-9 {
			t.Fatalf("case %d (m=%d n=%d): scaled=%v reference=%v rel=%g",
				c, len(read), len(hap), got, want, rel)
		}
	}
	t.Logf("worst relative error over 500 cases: %g", worst)
}

// TestKernelPairHMMScaledRescale forces the underflow-rescue path: a read
// long enough that unscaled forward probabilities drop below 1e-260.
func TestKernelPairHMMScaledRescale(t *testing.T) {
	read, qual, hap := rescaleCase()
	want := pairHMMReference(read, qual, hap)
	rows := bufpool.GetF64(6 * (len(hap) + 1))
	got := pairHMMScaled(read, qual, hap, rows)
	bufpool.PutF64(rows)
	if want > -700 {
		t.Fatalf("case not deep enough to exercise rescaling: reference=%v", want)
	}
	rel := math.Abs(got-want) / math.Abs(want)
	if rel > 1e-9 {
		t.Fatalf("scaled=%v reference=%v rel=%g", got, want, rel)
	}
}

// oracleLL is pairHMMScaled with PairHMMBatch's zero-length convention.
func oracleLL(read, qual, hap []byte) float64 {
	rows := bufpool.GetF64(6 * (len(hap) + 1))
	defer bufpool.PutF64(rows)
	return pairHMMScaled(read, qual, hap, rows)
}

// checkBatchAgainstOracle asserts PairHMMBatch ≡ pairHMMScaled bit for bit on
// every (read, hap) pair.
func checkBatchAgainstOracle(t testing.TB, reads, quals, haps [][]byte) {
	t.Helper()
	L := PairHMMBatch(reads, quals, haps)
	if len(L) != len(reads) {
		t.Fatalf("L has %d rows for %d reads", len(L), len(reads))
	}
	for i := range reads {
		if len(L[i]) != len(haps) {
			t.Fatalf("L[%d] has %d entries for %d haplotypes", i, len(L[i]), len(haps))
		}
		for h := range haps {
			want := oracleLL(reads[i], quals[i], haps[h])
			if math.Float64bits(L[i][h]) != math.Float64bits(want) {
				t.Fatalf("read %d (m=%d, %d quals) hap %d (n=%d) in a batch of %d: lanes=%x (%v) oracle=%x (%v)",
					i, len(reads[i]), len(quals[i]), h, len(haps[h]), len(reads),
					math.Float64bits(L[i][h]), L[i][h], math.Float64bits(want), want)
			}
		}
	}
}

// TestKernelPairHMMLanesBitIdentical: every lane of the interleaved kernel is
// the scalar kernel — same bits, not same to a tolerance — whatever shares
// the pass with it: batches of 1…9 reads (every remainder of hmmLanes), mixed
// read lengths, N in read and haplotype, short and empty quality strings,
// haplotypes shorter than the read and one column wide, empty reads and
// haplotypes.
func TestKernelPairHMMLanesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := 0
	for cases < 2400 {
		var reads, quals, haps [][]byte
		batch := 1 + rng.Intn(9)
		for k := 0; k < batch; k++ {
			r, q, h := randomHMMCase(rng, 250, 130)
			switch rng.Intn(12) {
			case 0:
				q = nil
			case 1:
				h[rng.Intn(len(h))] = 'N'
			case 2:
				h = h[:1+rng.Intn(len(r))] // n ≤ m
			case 3:
				h = h[:1]
			case 4:
				r, q = nil, nil
			case 5:
				h = nil
			}
			reads, quals = append(reads, r), append(quals, q)
			if k < 3 {
				haps = append(haps, h)
			}
		}
		checkBatchAgainstOracle(t, reads, quals, haps)
		cases += len(reads) * len(haps)
	}
}

// rescaleCase is the 1 800-base read of TestKernelPairHMMScaledRescale: deep
// enough that unscaled forward probabilities fall below 1e-260.
func rescaleCase() (read, qual, hap []byte) {
	rng := rand.New(rand.NewSource(13))
	bases := []byte("ACGT")
	hap = make([]byte, 2000)
	for i := range hap {
		hap[i] = bases[rng.Intn(4)]
	}
	read = append([]byte(nil), hap[100:1900]...)
	for i := range read {
		if rng.Float64() < 0.08 {
			read[i] = bases[rng.Intn(4)]
		}
	}
	qual = make([]byte, len(read))
	for i := range qual {
		qual[i] = 33 + 30
	}
	return read, qual, hap
}

// TestKernelPairHMMLanesRescale puts the long read in one lane beside three
// 100-base reads: the certificate must rescale that lane on the scalar
// kernel's rows and leave its neighbours alone. The oracle's counter shows
// the scalar schedule (rescales for the long read only); bit-equality with it
// shows the lanes followed that schedule, since a missed rescale underflows
// to -Inf and a spurious one moves the low bits through math.Log.
func TestKernelPairHMMLanesRescale(t *testing.T) {
	long, longQ, hap := rescaleCase()
	reads, quals := [][]byte{long}, [][]byte{longQ}
	for k := 0; k < 3; k++ {
		reads = append(reads, hap[300*k+50:300*k+150])
		quals = append(quals, longQ[:100])
	}
	for i := range reads {
		oracleRescales = 0
		oracleLL(reads[i], quals[i], hap)
		if (oracleRescales > 0) != (i == 0) {
			t.Fatalf("read %d (m=%d): scalar kernel rescaled %d rows", i, len(reads[i]), oracleRescales)
		}
	}
	// Every lane position for the long read.
	for at := 0; at < len(reads); at++ {
		reads[0], reads[at] = reads[at], reads[0]
		quals[0], quals[at] = quals[at], quals[0]
		checkBatchAgainstOracle(t, reads, quals, [][]byte{hap})
		reads[0], reads[at] = reads[at], reads[0]
		quals[0], quals[at] = quals[at], quals[0]
	}
}

// TestKernelPairHMMBatchConcurrent: concurrent batches over shared inputs
// share nothing but the pool, and agree with a serial run (run under -race).
func TestKernelPairHMMBatchConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var reads, quals, haps [][]byte
	for i := 0; i < 11; i++ {
		r, q, h := randomHMMCase(rng, 200, 100)
		reads, quals = append(reads, r), append(quals, q)
		if i < 3 {
			haps = append(haps, h)
		}
	}
	want := PairHMMBatch(reads, quals, haps)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				got := PairHMMBatch(reads, quals, haps)
				for i := range want {
					for h := range want[i] {
						if math.Float64bits(got[i][h]) != math.Float64bits(want[i][h]) {
							t.Errorf("concurrent batch [%d][%d] = %v, serial %v", i, h, got[i][h], want[i][h])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzPairHMMLanes: arbitrary bytes as read, qualities and haplotype must
// score bit-identically to the scalar oracle. The read is scored whole and in
// four pieces cut at a fuzzed point, so lanes of unequal length — some empty —
// share a pass. Seeds: testdata/fuzz/FuzzPairHMMLanes.
func FuzzPairHMMLanes(f *testing.F) {
	f.Fuzz(func(t *testing.T, seq, qual, hap []byte, cut uint16) {
		if len(seq) > 400 || len(hap) > 400 {
			t.Skip()
		}
		at := int(cut) % (len(seq) + 1)
		var reads, quals [][]byte
		for _, span := range [][2]int{{0, len(seq)}, {0, at}, {at, len(seq)}, {at / 2, at}, {len(seq) / 3, len(seq)}} {
			reads = append(reads, seq[span[0]:span[1]])
			quals = append(quals, qual[min(span[0], len(qual)):min(span[1], len(qual))])
		}
		checkBatchAgainstOracle(t, reads, quals, [][]byte{hap, seq})
	})
}

func TestKernelPairHMMEmptyInputs(t *testing.T) {
	if ll := PairHMMLogLikelihood(nil, nil, []byte("ACGT")); !math.IsInf(ll, -1) {
		t.Fatalf("empty read gave %v, want -Inf", ll)
	}
	if ll := PairHMMLogLikelihood([]byte("ACGT"), []byte("IIII"), nil); !math.IsInf(ll, -1) {
		t.Fatalf("empty hap gave %v, want -Inf", ll)
	}
	L := PairHMMBatch([][]byte{{}}, [][]byte{{}}, [][]byte{[]byte("ACGT")})
	if !math.IsInf(L[0][0], -1) {
		t.Fatalf("batch empty read gave %v, want -Inf", L[0][0])
	}
	if L := PairHMMBatch(nil, nil, nil); len(L) != 0 {
		t.Fatalf("empty batch: got %d rows", len(L))
	}
}

// TestPhredToProbQualShorterThanRead: positions past the end of the quality
// string default to Phred 30 (p = 1e-3), GATK's missing-quality stand-in.
func TestPhredToProbQualShorterThanRead(t *testing.T) {
	qual := []byte{33 + 10}
	if got, want := phredToProb(qual, 0), math.Pow(10, -1); got != want {
		t.Fatalf("in-range qual: got %v want %v", got, want)
	}
	want := math.Pow(10, -3)
	if got := phredToProb(qual, 1); got != want {
		t.Fatalf("past-end qual: got %v want %v", got, want)
	}
	if got := phredToProb(nil, 0); got != want {
		t.Fatalf("nil qual: got %v want %v", got, want)
	}
	// The fast kernels encode the same default as byte 63 ('?' = Phred 30).
	read, hap := []byte("ACGTACGT"), []byte("ACGTACGT")
	short := pairHMMReference(read, []byte("II"), hap)
	padded := make([]byte, len(read))
	copy(padded, "II")
	for i := 2; i < len(padded); i++ {
		padded[i] = defaultQualByte
	}
	full := pairHMMReference(read, padded, hap)
	if math.Float64bits(short) != math.Float64bits(full) {
		t.Fatalf("short-qual run %v != padded-default run %v", short, full)
	}
}

// TestPhredToProbLowQualClamps: qualities below Phred 2 — including bytes
// below 33, which decode to negative Phreds — clamp to Phred 2, and the error
// probability is capped at 0.25 (a base can't be more than uninformative over
// a 4-letter alphabet).
func TestPhredToProbLowQualClamps(t *testing.T) {
	want := 0.25 // Phred 2 → p = 10^-0.2 ≈ 0.63, capped at 0.25
	for _, b := range []byte{0, 1, 10, 32, 33, 34, 35} {
		if got := phredToProb([]byte{b}, 0); got != want {
			t.Fatalf("byte %d: got %v want %v", b, got, want)
		}
	}
	// First quality byte above the cap threshold: Phred 7 → p ≈ 0.1995.
	if got := phredToProb([]byte{33 + 7}, 0); got >= 0.25 || got < 0.19 {
		t.Fatalf("Phred 7: got %v, want ≈0.1995", got)
	}
}

// TestEmitTabMatchesPhredToProb: the emission table equals the per-cell math
// it replaces, bit for bit, at every quality byte.
func TestEmitTabMatchesPhredToProb(t *testing.T) {
	for b := 0; b < 256; b++ {
		p := phredToProb([]byte{byte(b)}, 0)
		e := emitTab[b]
		if math.Float64bits(e.pMatch) != math.Float64bits(1-p) ||
			math.Float64bits(e.pMismatch) != math.Float64bits(p/3) {
			t.Fatalf("emitTab[%d] = %+v, phredToProb gives p=%v", b, e, p)
		}
	}
}

func benchHMMInputs() (read, qual, hap []byte) {
	rng := rand.New(rand.NewSource(42))
	bases := []byte("ACGT")
	hap = make([]byte, 300)
	for i := range hap {
		hap[i] = bases[rng.Intn(4)]
	}
	read = append([]byte(nil), hap[50:150]...)
	for i := range read {
		if rng.Float64() < 0.03 {
			read[i] = bases[rng.Intn(4)]
		}
	}
	qual = make([]byte, len(read))
	for i := range qual {
		qual[i] = 33 + 30
	}
	return
}

func BenchmarkKernelPairHMMReference(b *testing.B) {
	read, qual, hap := benchHMMInputs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pairHMMReference(read, qual, hap)
	}
}

// reportPerCell adds ns/cell: the time of one DP cell of the pairs scored
// per iteration.
func reportPerCell(b *testing.B, cells int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
}

// BenchmarkKernelPairHMMScaled times the scalar oracle: the denominator of
// the lanes kernel's speedup.
func BenchmarkKernelPairHMMScaled(b *testing.B) {
	read, qual, hap := benchHMMInputs()
	rows := bufpool.GetF64(6 * (len(hap) + 1))
	defer bufpool.PutF64(rows)
	for i := 0; i < b.N; i++ {
		pairHMMScaled(read, qual, hap, rows)
	}
	reportPerCell(b, len(read)*len(hap))
}

// BenchmarkKernelPairHMMLanes times one full pass of the lanes kernel.
func BenchmarkKernelPairHMMLanes(b *testing.B) {
	read, qual, hap := benchHMMInputs()
	var reads, quals [hmmLanes][]byte
	for l := range reads {
		reads[l], quals[l] = read, qual
	}
	rows := bufpool.GetF64(3 * hmmLanes * (len(read) + len(hap)))
	defer bufpool.PutF64(rows)
	var ll [hmmLanes]float64
	for i := 0; i < b.N; i++ {
		pairHMMLanes(&reads, &quals, hap, rows, &ll)
	}
	reportPerCell(b, hmmLanes*len(read)*len(hap))
}

func BenchmarkKernelPairHMMFast(b *testing.B) {
	read, qual, hap := benchHMMInputs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PairHMMLogLikelihood(read, qual, hap)
	}
}

func BenchmarkKernelPairHMMBatch(b *testing.B) {
	read, qual, hap := benchHMMInputs()
	reads := [][]byte{read, read, read, read}
	quals := [][]byte{qual, qual, qual, qual}
	haps := [][]byte{hap, hap}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PairHMMBatch(reads, quals, haps)
	}
}
