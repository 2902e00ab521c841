package caller

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/gpf-go/gpf/internal/bufpool"
)

// pairLL is ln P(read | hap) for one pair, through PairHMMBatch.
func pairLL(read, qual, hap []byte) float64 {
	return PairHMMBatch([][]byte{read}, [][]byte{qual}, [][]byte{hap})[0][0]
}

// randomHMMCase builds a (read, qual, hap) triple: a haplotype, and a read
// drawn from it by readFrom.
func randomHMMCase(rng *rand.Rand, maxHap, maxRead int) (read, qual, hap []byte) {
	hap = randomSeq(rng, 10+rng.Intn(maxHap-10))
	read, qual = readFrom(rng, hap, maxRead)
	return read, qual, hap
}

// randomSeq returns n random bases.
func randomSeq(rng *rand.Rand, n int) []byte {
	bases := []byte("ACGT")
	s := make([]byte, n)
	for i := range s {
		s[i] = bases[rng.Intn(4)]
	}
	return s
}

// readFrom copies a read of up to maxRead bases from a random window of hap,
// then mutates it with substitutions, N and an occasional deletion, and gives
// it random qualities, sometimes fewer than its bases. An empty hap gives a
// random read.
func readFrom(rng *rand.Rand, hap []byte, maxRead int) (read, qual []byte) {
	bases := []byte("ACGT")
	if len(hap) == 0 {
		hap = randomSeq(rng, maxRead)
	}
	m := min(5+rng.Intn(maxRead-5), len(hap))
	off := rng.Intn(len(hap) - m + 1)
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
	return read, qual
}

// unscaledTotal is the one-read scalar form of pairHMMLanes, kept as its
// bit-identity oracle: the forward recurrence on probabilities from a
// 2^hmmStartExp start, every cell written with the lanes' operations in their
// order and expression shapes, and the flank summed left to right. It returns
// the total hmmLogLikelihood takes.
func unscaledTotal(read, qual, hap []byte) float64 {
	n := len(hap)
	prevM, prevI, prevD := make([]float64, n+1), make([]float64, n+1), make([]float64, n+1)
	curM, curI, curD := make([]float64, n+1), make([]float64, n+1), make([]float64, n+1)
	start := math.Ldexp(1, hmmStartExp)
	for i := 1; i <= len(read); i++ {
		qb := byte(defaultQualByte)
		if i-1 < len(qual) {
			qb = qual[i-1]
		}
		e := &emitTab[qb]
		rb := read[i-1]
		for j := 1; j <= n; j++ {
			emit := e.pMismatch
			if rb == hap[j-1] && rb != 'N' {
				emit = e.pMatch
			}
			if i == 1 {
				curM[j], curI[j] = emit*start, 0
			} else {
				curM[j] = emit * (prevM[j-1]*probMM + (prevI[j-1]+prevD[j-1])*probGM)
				curI[j] = prevM[j]*probMG + prevI[j]*probGG
			}
			curD[j] = curM[j-1]*probMG + curD[j-1]*probGG
		}
		prevM, curM = curM, prevM
		prevI, curI = curI, prevI
		prevD, curD = curD, prevD
	}
	total := 0.0
	for j := 1; j <= n; j++ {
		total += prevM[j] + prevI[j]
	}
	return total
}

// pairHMMUnscaled is unscaledTotal through the certificate, with
// PairHMMBatch's zero-length convention: the value PairHMMBatch must return
// for one pair, bit for bit.
func pairHMMUnscaled(read, qual, hap []byte) float64 {
	switch {
	case len(read) == 0 || len(hap) == 0:
		return math.Inf(-1)
	case len(hap) > hmmMaxHap:
		return pairHMMReference(read, qual, hap)
	}
	return hmmLogLikelihood(unscaledTotal(read, qual, hap), read, qual, hap)
}

// TestKernelPairHMMReferenceAccuracy: wherever the certificate accepts a
// pair, the kernel's log-likelihood is within 1e-12 relative of the
// log-space reference, over random cases up to 300-base reads.
func TestKernelPairHMMReferenceAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	worst, held := 0.0, 0
	for c := 0; c < 500; c++ {
		read, qual, hap := randomHMMCase(rng, 400, 300)
		if unscaledTotal(read, qual, hap) < hmmFloor {
			continue
		}
		held++
		want := pairHMMReference(read, qual, hap)
		got := pairLL(read, qual, hap)
		rel := math.Abs(got-want) / math.Abs(want)
		worst = max(worst, rel)
		if rel > 1e-12 {
			t.Fatalf("case %d (m=%d n=%d): kernel=%v reference=%v rel=%g",
				c, len(read), len(hap), got, want, rel)
		}
	}
	if held < 450 {
		t.Fatalf("the certificate held on only %d of 500 shallow cases", held)
	}
	t.Logf("worst relative error over %d certified cases: %g", held, worst)
}

// checkBatchAgainstOracle asserts PairHMMBatch ≡ pairHMMUnscaled bit for bit
// on every (read, hap) pair.
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
			want := pairHMMUnscaled(reads[i], quals[i], haps[h])
			if math.Float64bits(L[i][h]) != math.Float64bits(want) {
				t.Fatalf("read %d (m=%d, %d quals) hap %d (n=%d) in a batch of %d×%d: lanes=%x (%v) oracle=%x (%v)",
					i, len(reads[i]), len(quals[i]), h, len(haps[h]), len(reads), len(haps),
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

// rescaleCase is an 1 800-base read at Q30 with 8% substitutions, the depth
// at which the kernel once had to rescale rows: unscaled, its total still
// clears hmmFloor.
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

// TestKernelPairHMMCertificate: the certificate accepts the deep-but-honest
// 1 800-base read and refuses pairs whose total falls under hmmFloor, which
// then carry pairHMMReference's bits, whatever shares the lane group. A
// haplotype over hmmMaxHap never enters the lanes.
func TestKernelPairHMMCertificate(t *testing.T) {
	t.Run("accepted", func(t *testing.T) {
		long, longQ, hap := rescaleCase()
		if tot := unscaledTotal(long, longQ, hap); tot < hmmFloor {
			t.Fatalf("1 800-base read refused: total %g", tot)
		}
		want := pairHMMReference(long, longQ, hap)
		if got := pairLL(long, longQ, hap); math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Fatalf("1 800-base read: kernel %v, reference %v", got, want)
		}
		// Beside three 100-base reads, in every lane position.
		reads, quals := [][]byte{long}, [][]byte{longQ}
		for k := 0; k < 3; k++ {
			reads = append(reads, hap[300*k+50:300*k+150])
			quals = append(quals, longQ[:100])
		}
		for at := range reads {
			reads[0], reads[at] = reads[at], reads[0]
			quals[0], quals[at] = quals[at], quals[0]
			checkBatchAgainstOracle(t, reads, quals, [][]byte{hap})
			reads[0], reads[at] = reads[at], reads[0]
			quals[0], quals[at] = quals[at], quals[0]
		}
	})
	t.Run("refused", func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		// Insertions emit nothing in this model, so even an unrelated read
		// keeps ln P ≥ about m·ln(probGG) ≈ −2.3·m; 700 bases take it under
		// −(960+hmmStartExp)·ln 2 − ln n ≈ −1 360, where the total meets
		// hmmFloor.
		polyA, q60 := bytes.Repeat([]byte("A"), 700), bytes.Repeat([]byte{33 + 60}, 700)
		polyC := bytes.Repeat([]byte("C"), 120)
		random, hap := randomSeq(rng, 700), randomSeq(rng, 300)
		randQ := bytes.Repeat([]byte{33 + 30}, len(random))
		for _, c := range []struct{ read, qual, hap []byte }{{polyA, q60, polyC}, {random, randQ, hap}} {
			if tot := unscaledTotal(c.read, c.qual, c.hap); tot >= hmmFloor {
				t.Fatalf("m=%d n=%d: total %g clears the floor; case not deep enough", len(c.read), len(c.hap), tot)
			}
			want := math.Float64bits(pairHMMReference(c.read, c.qual, c.hap))
			// Alone, then in a lane group with shallow reads that stay in
			// the lanes.
			reads, quals := [][]byte{c.read}, [][]byte{c.qual}
			for k := 0; k < 4; k++ {
				L := PairHMMBatch(reads, quals, [][]byte{c.hap})
				if got := math.Float64bits(L[0][0]); got != want {
					t.Fatalf("m=%d n=%d beside %d reads: %x, reference %x", len(c.read), len(c.hap), k, got, want)
				}
				reads, quals = append(reads, c.hap[10*k:10*k+60]), append(quals, q60[:60])
			}
			checkBatchAgainstOracle(t, reads, quals, [][]byte{c.hap})
		}
	})
	t.Run("over length bound", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the reference's 200 MB of rows, under the race detector")
		}
		hap := bytes.Repeat([]byte("A"), hmmMaxHap+1)
		read, qual := []byte("A"), []byte("I")
		L := PairHMMBatch([][]byte{read}, [][]byte{qual}, [][]byte{hap, hap[:100]})
		if got, want := L[0][0], pairHMMReference(read, qual, hap); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("haplotype of %d bases: %v, reference %v", len(hap), got, want)
		}
		if got, want := L[0][1], pairHMMUnscaled(read, qual, hap[:100]); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("its 100-base prefix: %v, oracle %v", got, want)
		}
	})
}

// TestKernelPairHMMPrefixReuse: scoring haplotypes together, each resumed
// from a column of another, has the bits of scoring each alone. The sets grow
// from one random haplotype, each new one cut from an earlier one at any
// length 0…n and extended by a changed byte and a random tail, or kept as a
// bare prefix, or a duplicate, or empty; so prefixes nest, lengths differ,
// and a checkpoint's column can be the last of the pass that fills it.
// Batches of 1…9 reads.
func TestKernelPairHMMPrefixReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	bases := []byte("ACGT")
	var resumed, dups int
	for c := 0; c < 400; c++ {
		haps := [][]byte{randomSeq(rng, 20+rng.Intn(100))}
		for k := 1 + rng.Intn(7); k > 0; k-- {
			src := haps[rng.Intn(len(haps))]
			cut := rng.Intn(len(src) + 1)
			h := append([]byte(nil), src[:cut]...)
			switch rng.Intn(6) {
			case 0: // a prefix
			case 1:
				h = append(h, src[cut:]...) // a duplicate
			case 2:
				h = nil
			default:
				if cut < len(src) {
					h = append(h, bases[(bytes.IndexByte(bases, src[cut])+1+rng.Intn(3))%4])
				}
				h = append(h, randomSeq(rng, rng.Intn(60))...)
			}
			haps = append(haps, h)
		}
		rng.Shuffle(len(haps), func(a, b int) { haps[a], haps[b] = haps[b], haps[a] })
		var reads, quals [][]byte
		for k := 1 + rng.Intn(9); k > 0; k-- {
			r, q := readFrom(rng, haps[rng.Intn(len(haps))], 80)
			reads, quals = append(reads, r), append(quals, q)
		}
		L := PairHMMBatch(reads, quals, haps)
		for h := range haps {
			alone := PairHMMBatch(reads, quals, haps[h:h+1])
			for i := range reads {
				if math.Float64bits(L[i][h]) != math.Float64bits(alone[i][0]) {
					t.Fatalf("case %d read %d hap %d (n=%d) of %d: together %v, alone %v",
						c, i, h, len(haps[h]), len(haps), L[i][h], alone[i][0])
				}
			}
		}
		var hs []int
		for h := range haps {
			if len(haps[h]) > 0 {
				hs = append(hs, h)
			}
		}
		passes, dd, _ := hmmPlan(haps, hs)
		for _, ps := range passes {
			if ps.from != nil {
				resumed++
			}
		}
		dups += len(dd)
	}
	if resumed < 500 || dups < 50 {
		t.Fatalf("weak coverage: %d resumed passes, %d duplicates", resumed, dups)
	}
	t.Logf("%d resumed passes, %d duplicates", resumed, dups)
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
// share a pass; the haplotypes are built to share prefixes — hap, hap cut
// short, hap with the byte at the cut changed, and the read itself — so the
// passes resume from each other's columns. Seeds:
// testdata/fuzz/FuzzPairHMMLanes.
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
		hc := int(cut) % (len(hap) + 1)
		changed := append([]byte(nil), hap...)
		if hc < len(changed) {
			changed[hc]++
		}
		checkBatchAgainstOracle(t, reads, quals, [][]byte{hap, hap[:hc], changed, seq})
	})
}

func TestKernelPairHMMEmptyInputs(t *testing.T) {
	if ll := pairLL(nil, nil, []byte("ACGT")); !math.IsInf(ll, -1) {
		t.Fatalf("empty read gave %v, want -Inf", ll)
	}
	if ll := pairLL([]byte("ACGT"), []byte("IIII"), nil); !math.IsInf(ll, -1) {
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

// BenchmarkKernelPairHMMLanes times one full pass of the lanes kernel.
func BenchmarkKernelPairHMMLanes(b *testing.B) {
	read, qual, hap := benchHMMInputs()
	var reads, quals [hmmLanes][]byte
	for l := range reads {
		reads[l], quals[l] = read, qual
	}
	rows := bufpool.GetF64(3 * hmmLanes * (len(read) + len(hap)))
	defer bufpool.PutF64(rows)
	var total [hmmLanes]float64
	for i := 0; i < b.N; i++ {
		pairHMMLanes(&reads, &quals, hap, nil, nil, rows, &total)
	}
	reportPerCell(b, hmmLanes*len(read)*len(hap))
}

func BenchmarkKernelPairHMMFast(b *testing.B) {
	read, qual, hap := benchHMMInputs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pairLL(read, qual, hap)
	}
}

// BenchmarkKernelPairHMMBatch times an active region's likelihood matrix:
// twelve 100-base reads from a 300-base reference window, against the window
// and one alternative haplotype diverging at ½ (ref+1), or three diverging at
// ¼, ½ and ¾ (ref+3). It reports ns per (read, hap) pair, and the DP cells
// the batch computes per iteration (read bases × haplotype columns, resumed
// columns not counted) beside the cells of scoring each haplotype alone.
func BenchmarkKernelPairHMMBatch(b *testing.B) {
	_, qual, window := benchHMMInputs()
	rng := rand.New(rand.NewSource(43))
	var reads, quals [][]byte
	for k := 0; k < 12; k++ {
		off := rng.Intn(len(window) - 100)
		reads, quals = append(reads, window[off:off+100]), append(quals, qual)
	}
	alt := func(at int) []byte {
		h := append([]byte(nil), window...)
		h[at] = "CGTA"[strings.IndexByte("ACGT", h[at])]
		return h
	}
	n := len(window)
	for _, c := range []struct {
		name string
		haps [][]byte
	}{
		{"ref+1", [][]byte{window, alt(n / 2)}},
		{"ref+3", [][]byte{window, alt(n / 4), alt(n / 2), alt(3 * n / 4)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			m, cells, full := 0, 0, 0
			for _, r := range reads {
				m += len(r)
			}
			passes, _, _ := hmmPlan(c.haps, []int{0, 1, 2, 3}[:len(c.haps)])
			for _, ps := range passes {
				from := 0
				if ps.from != nil {
					from = ps.from.col
				}
				cells += m * (len(c.haps[ps.hap]) - from)
			}
			for _, h := range c.haps {
				full += m * len(h)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PairHMMBatch(reads, quals, c.haps)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(reads)*len(c.haps)), "ns/pair")
			b.ReportMetric(float64(cells), "cells/op")
			b.ReportMetric(float64(full), "alone-cells/op")
		})
	}
}
