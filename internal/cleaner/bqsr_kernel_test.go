package cleaner

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"github.com/gpf-go/gpf/internal/sam"
)

// randomRecalTable fills every bin with random counts, leaving each cycle
// and context bin empty with probability emptyFrac.
func randomRecalTable(rng *rand.Rand, emptyFrac float64) *RecalTable {
	draw := func() counter {
		obs := int64(rng.Intn(1 << uint(1+rng.Intn(24))))
		return counter{Obs: obs, Errs: int64(float64(obs) * rng.Float64() * rng.Float64())}
	}
	t := &RecalTable{Global: draw()}
	t.Global.Obs++
	for i := range t.ByQual {
		t.ByQual[i] = draw()
	}
	for i := range t.ByCycle {
		if rng.Float64() >= emptyFrac {
			t.ByCycle[i] = draw()
		}
	}
	for i := range t.ByCtx {
		if rng.Float64() >= emptyFrac {
			t.ByCtx[i] = draw()
		}
	}
	return t
}

// recalibratedQual computes the recalibrated Phred for a base using the
// GATK delta decomposition: empirical(Q) shifted by the cycle and context
// deltas relative to the global empirical quality.
func (t *RecalTable) recalibratedQual(reportedQ, cycle int, prev, cur byte) int {
	if t.Global.Obs == 0 {
		return reportedQ
	}
	q := reportedQ
	if q >= maxQual {
		q = maxQual - 1
	}
	if q < 0 {
		q = 0
	}
	global := t.Global.empiricalQual()
	out := t.ByQual[q].empiricalQual()
	if c := t.ByCycle[cycleBin(cycle)]; c.Obs > 0 {
		out += c.empiricalQual() - global
	}
	if ctx := contextBin(prev, cur); ctx >= 0 && t.ByCtx[ctx].Obs > 0 {
		out += t.ByCtx[ctx].empiricalQual() - global
	}
	qi := int(out + 0.5)
	if qi < 2 {
		qi = 2
	}
	if qi > 60 {
		qi = 60
	}
	return qi
}

// applyRecalibrationRef is the original apply pass — four math.Log10 per
// base — kept as the equivalence oracle.
func applyRecalibrationRef(records []sam.Record, t *RecalTable) {
	for i := range records {
		r := &records[i]
		if r.Unmapped() || len(r.Qual) != len(r.Seq) {
			continue
		}
		newQual := make([]byte, len(r.Qual))
		for j := range r.Qual {
			reported := int(r.Qual[j]) - 33
			var prev byte = 'N'
			if j > 0 {
				prev = r.Seq[j-1]
			}
			newQual[j] = byte(t.recalibratedQual(reported, j, prev, r.Seq[j]) + 33)
		}
		r.Qual = newQual
	}
}

// TestKernelRecalibratedQualBitIdentical: the prepared table returns
// recalibratedQual's Phred for every quality byte × cycle (past the last bin
// too) × previous/current base — the 16 contexts and every way of having
// none — on random tables and on the degenerate ones: empty cycle and context
// bins, bins that clamp the empirical quality at 1 and at 60, and sums that
// clamp the result at 2 and at 60. (A table with no observations at all takes
// the copy branch: TestKernelApplyRecalibrationEquivalence.)
func TestKernelRecalibratedQualBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2141))
	tables := map[string]*RecalTable{
		"random":       randomRecalTable(rng, 0),
		"random-holes": randomRecalTable(rng, 0.5),
		"empty-bins":   {Global: counter{Obs: 1000, Errs: 10}},
	}
	allErrors := &RecalTable{Global: counter{Obs: 1 << 20, Errs: 1 << 10}}
	noErrors := &RecalTable{Global: counter{Obs: 1 << 20, Errs: 1 << 19}}
	for i := range allErrors.ByQual {
		allErrors.ByQual[i] = counter{Obs: 1 << 20, Errs: 1 << 20} // empirical quality clamps at 1
		noErrors.ByQual[i] = counter{Obs: 1 << 40}                 // and at 60
	}
	for i := range allErrors.ByCycle {
		allErrors.ByCycle[i] = counter{Obs: 1 << 20, Errs: 1 << 20} // deltas drive the sum under 2
		noErrors.ByCycle[i] = counter{Obs: 1 << 40}                 // and over 60
	}
	for i := range allErrors.ByCtx {
		allErrors.ByCtx[i] = counter{Obs: 1 << 20, Errs: 1 << 20}
		noErrors.ByCtx[i] = counter{Obs: 1 << 40}
	}
	tables["clamp-low"], tables["clamp-high"] = allErrors, noErrors

	bases := []byte("ACGTN")
	for name, tab := range tables {
		var lut recalLUT
		tab.prepare(&lut)
		seen := map[byte]bool{}
		for qb := 0; qb < 256; qb++ {
			for cycle := 0; cycle < maxCycle+3; cycle++ {
				for _, prev := range bases {
					for _, cur := range bases {
						if prev == 'N' && cur != 'A' && cur != 'N' {
							continue // no previous base: one ACGT current base stands for four
						}
						want := byte(tab.recalibratedQual(qb-33, cycle, prev, cur) + 33)
						got := lut.qual(byte(qb), cycle, baseCode5[prev], baseCode5[cur])
						if got != want {
							t.Fatalf("%s: quality byte %d cycle %d context %c%c: fast %d, reference %d", name, qb, cycle, prev, cur, got, want)
						}
						seen[want] = true
					}
				}
			}
		}
		switch name {
		case "clamp-low":
			if len(seen) != 1 || !seen[2+33] {
				t.Fatalf("%s: outputs %v, want only Phred 2", name, seen)
			}
		case "clamp-high":
			if len(seen) != 1 || !seen[60+33] {
				t.Fatalf("%s: outputs %v, want only Phred 60", name, seen)
			}
		}
	}
}

// recalRecords draws records that exercise every skip and clamp of the apply
// pass: unmapped reads, a quality string shorter than the sequence, N and
// lowercase bases, quality bytes under 33 and over 96, reads longer than the
// cycle table.
func recalRecords(rng *rand.Rand, n int) []sam.Record {
	alphabet := []byte("ACGTACGTACGTNacgtn")
	recs := make([]sam.Record, n)
	for i := range recs {
		length := 1 + rng.Intn(150)
		if i%17 == 0 {
			length = maxCycle + rng.Intn(40)
		}
		r := sam.Record{Seq: make([]byte, length), Qual: make([]byte, length)}
		for j := range r.Seq {
			r.Seq[j] = alphabet[rng.Intn(len(alphabet))]
			r.Qual[j] = byte(33 + rng.Intn(42))
			if rng.Intn(50) == 0 {
				r.Qual[j] = byte(rng.Intn(256))
			}
		}
		switch i % 11 {
		case 3:
			r.Flag = sam.FlagUnmapped
		case 7:
			r.Qual = r.Qual[:length/2]
		case 9:
			r.Seq, r.Qual = nil, nil
		}
		recs[i] = r
	}
	return recs
}

func cloneRecords(recs []sam.Record) []sam.Record {
	out := append([]sam.Record(nil), recs...)
	for i := range out {
		out[i].Seq = append([]byte(nil), recs[i].Seq...)
		out[i].Qual = append([]byte(nil), recs[i].Qual...)
	}
	return out
}

// TestKernelApplyRecalibrationEquivalence: the slab-backed apply pass writes
// the reference's quality strings, leaves skipped records and every old
// string alone, and clips each new string's capacity so an append cannot
// reach its neighbour — on a random table and on one with no observations.
func TestKernelApplyRecalibrationEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2151))
	for name, tab := range map[string]*RecalTable{
		"random": randomRecalTable(rng, 0.3),
		"no-obs": {},
	} {
		input := recalRecords(rng, 300)
		want, got := cloneRecords(input), cloneRecords(input)
		oldQuals := make([][]byte, len(got))
		for i := range got {
			oldQuals[i] = got[i].Qual
		}
		applyRecalibrationRef(want, tab)
		if err := ApplyRecalibration(got, tab); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !bytes.Equal(got[i].Qual, want[i].Qual) || (got[i].Qual == nil) != (want[i].Qual == nil) {
				t.Fatalf("%s: record %d: fast %v, reference %v", name, i, got[i].Qual, want[i].Qual)
			}
			if !bytes.Equal(oldQuals[i], input[i].Qual) {
				t.Fatalf("%s: record %d: the old quality string was written", name, i)
			}
			skipped := input[i].Unmapped() || len(input[i].Qual) != len(input[i].Seq)
			if len(oldQuals[i]) > 0 {
				if kept := &got[i].Qual[0] == &oldQuals[i][0]; kept != skipped {
					t.Fatalf("%s: record %d: skipped=%v but old quality string kept=%v", name, i, skipped, kept)
				}
			}
			if !skipped && cap(got[i].Qual) != len(got[i].Qual) {
				t.Fatalf("%s: record %d: capacity %d over length %d", name, i, cap(got[i].Qual), len(got[i].Qual))
			}
		}
	}
}

// TestKernelSortByCoordinateStable: the sorted-permutation sort returns
// sort.SliceStable's order under sam.CoordinateCompare, ties (same contig,
// position, strand and name) in input order, unmapped reads last.
func TestKernelSortByCoordinateStable(t *testing.T) {
	rng := rand.New(rand.NewSource(2161))
	for c := 0; c < 50; c++ {
		recs := make([]sam.Record, rng.Intn(400))
		for i := range recs {
			recs[i] = sam.Record{
				Name:    string(rune('a' + rng.Intn(3))),
				RefID:   int32(rng.Intn(4) - 1),
				Pos:     int32(rng.Intn(6) - 1),
				TempLen: int32(i), // tells tied records apart
			}
			if rng.Intn(2) == 0 {
				recs[i].Flag = sam.FlagReverse
			}
		}
		want := append([]sam.Record(nil), recs...)
		sort.SliceStable(want, func(i, j int) bool { return sam.CoordinateCompare(&want[i], &want[j]) < 0 })
		SortByCoordinate(recs)
		for i := range want {
			if recs[i].TempLen != want[i].TempLen {
				t.Fatalf("case %d: position %d holds input record %d, stable sort puts %d there", c, i, recs[i].TempLen, want[i].TempLen)
			}
		}
	}
}

func benchApplyRecalibration(b *testing.B, apply func([]sam.Record, *RecalTable)) {
	rng := rand.New(rand.NewSource(2171))
	tab := randomRecalTable(rng, 0.1)
	input := make([]sam.Record, 1000)
	bases := []byte("ACGT")
	for i := range input {
		r := sam.Record{Seq: make([]byte, 100), Qual: make([]byte, 100)}
		for j := range r.Seq {
			r.Seq[j] = bases[rng.Intn(4)]
			r.Qual[j] = byte(33 + 20 + rng.Intn(20))
		}
		input[i] = r
	}
	recs := make([]sam.Record, len(input))
	b.SetBytes(int64(len(input) * 100))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(recs, input)
		apply(recs, tab)
	}
}

func BenchmarkKernelApplyRecalibrationReference(b *testing.B) {
	benchApplyRecalibration(b, applyRecalibrationRef)
}

func BenchmarkKernelApplyRecalibrationFast(b *testing.B) {
	benchApplyRecalibration(b, func(recs []sam.Record, tab *RecalTable) {
		if err := ApplyRecalibration(recs, tab); err != nil {
			b.Fatal(err)
		}
	})
}
