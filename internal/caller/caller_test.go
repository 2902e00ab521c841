package caller

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/gpf-go/gpf/internal/align"
	"github.com/gpf-go/gpf/internal/cleaner"
	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/vcf"
)

func TestLogSumExp(t *testing.T) {
	a := math.Log(0.3)
	b := math.Log(0.7)
	if got := logSumExp2(a, b); math.Abs(got) > 1e-12 {
		t.Fatalf("logSumExp2(log .3, log .7) = %v, want 0", got)
	}
	inf := math.Inf(-1)
	if got := logSumExp2(inf, b); got != b {
		t.Fatalf("logSumExp2(-inf, b) = %v", got)
	}
	if got := logSumExp2(a, inf); got != a {
		t.Fatalf("logSumExp2(a, -inf) = %v", got)
	}
	c := math.Log(0.5)
	if got := logSumExp3(a, b, c); math.Abs(got-math.Log(1.5)) > 1e-12 {
		t.Fatalf("logSumExp3 = %v", got)
	}
}

func TestPairHMMPrefersMatchingHaplotype(t *testing.T) {
	hap := []byte("ACGTACGTACGTACGTACGTACGTACGT")
	read := hap[4:20]
	qual := bytes.Repeat([]byte("I"), len(read))
	match := pairLL(read, qual, hap)
	// Mutate the haplotype in the read's span.
	altHap := append([]byte(nil), hap...)
	altHap[10] = 'T'
	if altHap[10] == hap[10] {
		altHap[10] = 'C'
	}
	mismatch := pairLL(read, qual, altHap)
	if match <= mismatch {
		t.Fatalf("match LL %v should exceed mismatch LL %v", match, mismatch)
	}
}

func TestPairHMMQualitySensitivity(t *testing.T) {
	hap := []byte("ACGTACGTACGTACGTACGT")
	read := append([]byte(nil), hap[2:18]...)
	read[7] = 'A'
	if read[7] == hap[9] {
		read[7] = 'C'
	}
	hiQ := bytes.Repeat([]byte("I"), len(read)) // Q40
	loQ := append([]byte(nil), hiQ...)
	loQ[7] = '#' // Q2 at the mismatch
	hi := pairLL(read, hiQ, hap)
	lo := pairLL(read, loQ, hap)
	// A low-quality mismatch is less surprising: higher likelihood.
	if lo <= hi {
		t.Fatalf("low-qual mismatch LL %v should exceed high-qual %v", lo, hi)
	}
}

func TestPairHMMEmptyInputs(t *testing.T) {
	if !math.IsInf(pairLL(nil, nil, []byte("ACGT")), -1) {
		t.Fatal("empty read should yield -inf")
	}
	if !math.IsInf(pairLL([]byte("ACGT"), []byte("IIII"), nil), -1) {
		t.Fatal("empty hap should yield -inf")
	}
}

func TestAssembleHaplotypesRecoversVariant(t *testing.T) {
	ref := genome.Synthesize(genome.DefaultSynthConfig(201, 4000, 1))
	window := append([]byte(nil), ref.Contigs[0].Seq[500:700]...)
	if hasN(window) {
		t.Skip("N in window")
	}
	// Alt haplotype with one SNV in the middle.
	alt := append([]byte(nil), window...)
	alt[100] = substituteBase(alt[100])
	// Reads tiled across the alt haplotype.
	var reads [][]byte
	for i := 0; i+60 <= len(alt); i += 10 {
		reads = append(reads, alt[i:i+60])
	}
	haps := assembleHaplotypes(window, reads, 19, 8, 2)
	if len(haps) < 2 {
		t.Fatalf("assembly produced %d haplotypes; want >= 2", len(haps))
	}
	found := false
	for _, h := range haps[1:] {
		if bytes.Equal(h, alt) {
			found = true
		}
	}
	if !found {
		t.Fatal("alt haplotype not recovered by assembly")
	}
}

func TestAssembleHaplotypesRefOnly(t *testing.T) {
	// Non-repetitive window so the de Bruijn graph is acyclic.
	window := []byte("AACGTGCTAGGATCCTAGCAAGTCCAGTTGCA")
	// Reads agree with reference: only ref haplotype expected.
	reads := [][]byte{window[:20], window[10:30]}
	haps := assembleHaplotypes(window, reads, 11, 8, 2)
	if len(haps) != 1 {
		t.Fatalf("clean reads produced %d haplotypes", len(haps))
	}
	// Degenerate window shorter than k.
	if got := assembleHaplotypes([]byte("ACGT"), nil, 19, 8, 2); len(got) != 1 {
		t.Fatal("short window must return ref only")
	}
}

func substituteBase(b byte) byte {
	for _, c := range []byte("ACGT") {
		if c != b {
			return c
		}
	}
	return 'A'
}

func TestVariantsFromHaplotypeSNV(t *testing.T) {
	window := []byte("AACCGGTTAACCGGTT")
	hap := append([]byte(nil), window...)
	hap[5] = 'A' // G->A at window offset 5
	vars := variantsFromHaplotype(hap, window, 1000, align.DefaultScoring())
	if len(vars) != 1 {
		t.Fatalf("vars = %+v", vars)
	}
	if vars[0].pos != 1005 || vars[0].ref != "G" || vars[0].alt != "A" {
		t.Fatalf("var = %+v", vars[0])
	}
}

func TestVariantsFromHaplotypeIndel(t *testing.T) {
	window := []byte("AACCGGTTAACCGGTTAACC")
	// Deletion of 2 bases at offset 8-9.
	hap := append(append([]byte(nil), window[:8]...), window[10:]...)
	vars := variantsFromHaplotype(hap, window, 0, align.DefaultScoring())
	if len(vars) != 1 {
		t.Fatalf("vars = %+v", vars)
	}
	v := vars[0]
	if v.pos != 7 || len(v.ref) != 3 || len(v.alt) != 1 {
		t.Fatalf("del var = %+v", v)
	}
	// Insertion of TTT after the TT run at 6-7; the aligner left-aligns the
	// ambiguous placement to the anchor at offset 5.
	hap2 := append([]byte(nil), window[:8]...)
	hap2 = append(hap2, 'T', 'T', 'T')
	hap2 = append(hap2, window[8:]...)
	vars2 := variantsFromHaplotype(hap2, window, 0, align.DefaultScoring())
	if len(vars2) != 1 {
		t.Fatalf("ins vars = %+v", vars2)
	}
	if len(vars2[0].alt) != 4 || len(vars2[0].ref) != 1 || vars2[0].pos > 7 {
		t.Fatalf("ins var = %+v", vars2[0])
	}
}

// pipelineRecords builds an aligned, deduped, realigned dataset over a donor
// genome — the state the Caller receives.
func pipelineRecords(t testing.TB, seed int64, size int, coverage float64) (*genome.Reference, *genome.Donor, []sam.Record) {
	t.Helper()
	ref := genome.Synthesize(genome.DefaultSynthConfig(seed, size, 1))
	donor := genome.Mutate(ref, genome.DefaultMutateConfig(seed+1))
	pairs := fastq.Simulate(donor, fastq.DefaultSimConfig(seed+2, coverage))
	idx, err := align.BuildFMIndex(ref)
	if err != nil {
		t.Fatal(err)
	}
	aligner := align.NewAligner(idx, align.Config{})
	var records []sam.Record
	for i := range pairs {
		r1, r2 := aligner.AlignPair(&pairs[i])
		records = append(records, r1, r2)
	}
	cleaner.SortByCoordinate(records)
	cleaner.MarkDuplicates(records)
	cleaner.RealignIndels(records, ref, align.DefaultScoring())
	return ref, donor, records
}

func TestFindActiveRegionsAroundVariants(t *testing.T) {
	ref, donor, records := pipelineRecords(t, 301, 30000, 15)
	regions := FindActiveRegions(records, ref, DefaultConfig())
	if len(regions) == 0 {
		t.Fatal("no active regions over a mutated genome")
	}
	// Most heterozygous/homozygous SNVs with coverage should be inside a
	// region.
	covered := 0
	total := 0
	for _, v := range donor.Truth.Variants {
		if v.Type != genome.SNV {
			continue
		}
		total++
		for _, r := range regions {
			if r.Contains(v.Contig, v.Pos) {
				covered++
				break
			}
		}
	}
	if total == 0 {
		t.Skip("no SNVs injected")
	}
	if float64(covered)/float64(total) < 0.6 {
		t.Fatalf("only %d/%d truth SNVs inside active regions", covered, total)
	}
}

// findActiveRegionsMap is the per-base map pileup FindActiveRegions used
// before the paged one, kept verbatim as its oracle on well-formed input. (On
// records with breakpoints outside their contig it returns inverted
// intervals; that defect is what TestFindActiveRegionsHostileRecords pins.)
func findActiveRegionsMap(records []sam.Record, ref *genome.Reference, cfg Config) []genome.Interval {
	type mapCell struct{ depth, mismatch, indel int }
	cells := map[genome.Position]*mapCell{}
	bump := func(contig, pos int) *mapCell {
		key := genome.Position{Contig: contig, Pos: pos}
		c := cells[key]
		if c == nil {
			c = &mapCell{}
			cells[key] = c
		}
		return c
	}
	for i := range records {
		r := &records[i]
		if r.Unmapped() || r.Duplicate() || len(r.Seq) == 0 {
			continue
		}
		contig := int(r.RefID)
		refSeq := ref.Contig(contig)
		if refSeq == nil {
			continue
		}
		readPos, refPos := 0, int(r.Pos)
		for _, op := range r.Cigar {
			switch op.Op {
			case 'M', '=', 'X':
				for k := 0; k < op.Len; k++ {
					rp := refPos + k
					if rp < 0 || rp >= len(refSeq.Seq) || readPos+k >= len(r.Seq) {
						continue
					}
					if int(r.Qual[readPos+k])-33 < cfg.MinBaseQual {
						continue
					}
					c := bump(contig, rp)
					c.depth++
					if r.Seq[readPos+k] != refSeq.Seq[rp] {
						c.mismatch++
					}
				}
				readPos += op.Len
				refPos += op.Len
			case 'I':
				c := bump(contig, refPos)
				c.depth++
				c.indel++
				readPos += op.Len
			case 'D', 'N':
				c := bump(contig, refPos)
				c.depth++
				c.indel++
				refPos += op.Len
			case 'S':
				readPos += op.Len
			}
		}
	}
	var ivs []genome.Interval
	for pos, c := range cells {
		if c.depth < cfg.MinActiveDepth {
			continue
		}
		frac := float64(c.mismatch+c.indel*2) / float64(c.depth)
		if frac < cfg.MinActiveFrac {
			continue
		}
		start := pos.Pos - cfg.RegionPad
		if start < 0 {
			start = 0
		}
		end := pos.Pos + cfg.RegionPad
		if contig := ref.Contig(pos.Contig); contig != nil && end > contig.Len() {
			end = contig.Len()
		}
		ivs = append(ivs, genome.Interval{Contig: pos.Contig, Start: start, End: end})
	}
	return genome.MergeIntervals(ivs)
}

// TestKernelFindActiveRegionsOracle: the paged pileup finds exactly the map
// pileup's regions, and its memory follows the covered reference, not the
// span of the coordinates.
func TestKernelFindActiveRegionsOracle(t *testing.T) {
	for _, d := range []struct {
		seed     int64
		size     int
		coverage float64
	}{{301, 30000, 15}, {401, 40000, 20}, {901, 9000, 8}} {
		ref, _, records := pipelineRecords(t, d.seed, d.size, d.coverage)
		got := FindActiveRegions(records, ref, DefaultConfig())
		want := findActiveRegionsMap(records, ref, DefaultConfig())
		if len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: paged pileup found %d regions, map pileup %d:\n%v\n%v", d.seed, len(got), len(want), got, want)
		}
	}

	// Two piles of reads 200 Mb apart on one contig (all-zero sequence: the
	// untouched pages of the allocation are never resident).
	ref := genome.NewReference([]genome.Contig{{Name: "big", Seq: make([]byte, 200<<20+5000)}})
	var records []sam.Record
	for _, pos := range []int32{4000, 200<<20 + 4000} { // each straddles a page boundary
		for k := 0; k < 4; k++ {
			records = append(records, sam.Record{
				Name: "r", RefID: 0, Pos: pos + int32(k), MapQ: 60,
				Cigar: []sam.CigarOp{{Op: 'M', Len: 60}, {Op: 'D', Len: 2}, {Op: 'M', Len: 60}},
				Seq:   bytes.Repeat([]byte("A"), 120),
				Qual:  bytes.Repeat([]byte("I"), 120),
			})
		}
	}
	cfg := DefaultConfig()
	if pages := len(pileUp(records, ref, cfg.MinBaseQual).pages); pages < 2 || pages > 4 {
		t.Fatalf("two piles 200 Mb apart allocated %d pages, want 2..4", pages)
	}
	got, want := FindActiveRegions(records, ref, cfg), findActiveRegionsMap(records, ref, cfg)
	if len(got) != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("distant piles: paged %v, map %v", got, want)
	}
}

// TestFindActiveRegionsHostileRecords: records whose coordinates leave their
// contig (or name no contig) used to yield inverted intervals, on which
// CallRegion died with "slice bounds out of range [5040:5000]". Evidence
// outside the contig is ignored now, every interval is well-formed, and the
// caller returns instead of panicking.
func TestFindActiveRegionsHostileRecords(t *testing.T) {
	ref := genome.Synthesize(genome.DefaultSynthConfig(1001, 5000, 1))
	contigLen := ref.Contigs[0].Len()
	read := func(refID, pos int32, cigar ...sam.CigarOp) sam.Record {
		n := 0
		for _, op := range cigar {
			if op.Op == 'M' || op.Op == 'I' || op.Op == 'S' {
				n += op.Len
			}
		}
		return sam.Record{Name: "h", RefID: refID, Pos: pos, MapQ: 60, Cigar: cigar,
			Seq: bytes.Repeat([]byte("A"), n), Qual: bytes.Repeat([]byte("I"), n)}
	}
	four := func(r sam.Record) []sam.Record { return []sam.Record{r, r, r, r} }
	noQual := read(0, 100, sam.CigarOp{Op: 'M', Len: 50})
	noQual.Qual = nil
	for _, c := range []struct {
		name    string
		records []sam.Record
	}{
		{"insertion past the contig end", four(read(0, int32(contigLen)+100, sam.CigarOp{Op: 'I', Len: 5}))},
		{"insertion before the contig", four(read(0, -100, sam.CigarOp{Op: 'I', Len: 5}))},
		{"deletion before the contig", four(read(0, -100, sam.CigarOp{Op: 'D', Len: 5}, sam.CigarOp{Op: 'M', Len: 20}))},
		{"read overhanging the end", four(read(0, int32(contigLen)-20, sam.CigarOp{Op: 'M', Len: 30},
			sam.CigarOp{Op: 'D', Len: 3}, sam.CigarOp{Op: 'M', Len: 30}))},
		{"RefID out of range", four(read(7, 100, sam.CigarOp{Op: 'M', Len: 50}))},
		{"insertion at the start", four(read(0, 0, sam.CigarOp{Op: 'I', Len: 5}, sam.CigarOp{Op: 'M', Len: 40}))},
		{"no quality string", four(noQual)},
	} {
		t.Run(c.name, func(t *testing.T) {
			CallVariantsFiltered(c.records, ref, DefaultConfig(), nil) // must not panic
			for _, iv := range FindActiveRegions(c.records, ref, DefaultConfig()) {
				if iv.Start < 0 || iv.Start >= iv.End || iv.End > contigLen {
					t.Fatalf("malformed interval %+v on a %d-base contig", iv, contigLen)
				}
			}
		})
	}
	// CallRegion itself refuses an inverted or empty window.
	for _, iv := range []genome.Interval{{Contig: 0, Start: 5070, End: 5000}, {Contig: 0, Start: 6000, End: 6000}} {
		if got := CallRegion(nil, ref, iv, DefaultConfig()); got != nil {
			t.Fatalf("CallRegion(%+v) = %v, want nil", iv, got)
		}
	}
}

// TestKernelCallVariantsGolden pins the caller's output bytes on one dataset
// to the sha256 computed at the commit before the lane kernel and the paged
// pileup went in: neither may move a call, a genotype or a QUAL digit.
func TestKernelCallVariantsGolden(t *testing.T) {
	const want = "c9e6fbcca38bf3729d1fa4e644b4148b2d5bba90f83dd6b4ad1c5828ce8e42c4"
	ref, _, records := pipelineRecords(t, 401, 40000, 20)
	var buf bytes.Buffer
	if err := vcf.Write(&buf, nil, CallVariantsFiltered(records, ref, DefaultConfig(), nil)); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("VCF sha256 = %s, want %s\n%s", got, want, buf.String())
	}
}

func TestCallVariantsRecall(t *testing.T) {
	ref, donor, records := pipelineRecords(t, 401, 40000, 20)
	calls := CallVariantsFiltered(records, ref, DefaultConfig(), nil)
	if len(calls) == 0 {
		t.Fatal("no variants called")
	}
	var truth []vcf.Record
	for _, v := range donor.Truth.Variants {
		truth = append(truth, vcf.Record{
			Chrom: ref.Contigs[v.Contig].Name,
			Pos:   v.Pos,
			Ref:   string(v.Ref),
			Alt:   string(v.Alt),
		})
	}
	stats := vcf.Compare(calls, truth, 2)
	if stats.Recall() < 0.5 {
		t.Fatalf("recall %.2f too low (TP=%d FP=%d FN=%d)",
			stats.Recall(), stats.TruePositive, stats.FalsePositive, stats.FalseNegative)
	}
	if stats.Precision() < 0.5 {
		t.Fatalf("precision %.2f too low (TP=%d FP=%d)",
			stats.Precision(), stats.TruePositive, stats.FalsePositive)
	}
}

func TestCallVariantsEmptyInput(t *testing.T) {
	ref := genome.Synthesize(genome.DefaultSynthConfig(501, 5000, 1))
	if got := CallVariantsFiltered(nil, ref, DefaultConfig(), nil); got != nil {
		t.Fatalf("no reads should call nothing, got %v", got)
	}
}

func TestCallVariantsSortedAndDeduped(t *testing.T) {
	ref, _, records := pipelineRecords(t, 601, 30000, 15)
	calls := CallVariantsFiltered(records, ref, DefaultConfig(), nil)
	for i := 1; i < len(calls); i++ {
		a, b := calls[i-1], calls[i]
		if a.Chrom == b.Chrom && a.Pos == b.Pos && a.Ref == b.Ref && a.Alt == b.Alt {
			t.Fatalf("duplicate call at %s:%d", b.Chrom, b.Pos)
		}
		if a.Chrom == b.Chrom && a.Pos > b.Pos {
			t.Fatalf("calls out of order at index %d", i)
		}
	}
}

// pileupCall is the simple statistical caller the haplotype caller is
// compared against: per-position allele counts with a binomial-style
// threshold. It catches SNVs only.
func pileupCall(records []sam.Record, ref *genome.Reference, minDepth int, minFrac float64, minBaseQual int) []vcf.Record {
	type cell struct {
		depth int
		alt   map[byte]int
	}
	cells := map[genome.Position]*cell{}
	for i := range records {
		r := &records[i]
		if r.Unmapped() || r.Duplicate() || len(r.Seq) == 0 {
			continue
		}
		contig := int(r.RefID)
		refSeq := ref.Contig(contig)
		if refSeq == nil {
			continue
		}
		readPos, refPos := 0, int(r.Pos)
		for _, op := range r.Cigar {
			switch op.Op {
			case 'M', '=', 'X':
				for k := 0; k < op.Len; k++ {
					rp := refPos + k
					if rp < 0 || rp >= len(refSeq.Seq) || readPos+k >= len(r.Seq) {
						continue
					}
					// A missing quality (QUAL *) passes the filter, as in pileUp.
					if q := readPos + k; q < len(r.Qual) && int(r.Qual[q])-33 < minBaseQual {
						continue
					}
					key := genome.Position{Contig: contig, Pos: rp}
					c := cells[key]
					if c == nil {
						c = &cell{alt: map[byte]int{}}
						cells[key] = c
					}
					c.depth++
					if b := r.Seq[readPos+k]; b != refSeq.Seq[rp] && b != 'N' {
						c.alt[b]++
					}
				}
				readPos += op.Len
				refPos += op.Len
			case 'I', 'S':
				readPos += op.Len
			case 'D', 'N':
				refPos += op.Len
			}
		}
	}
	var out []vcf.Record
	for pos, c := range cells {
		if c.depth < minDepth {
			continue
		}
		var bestAlt byte
		bestCount := 0
		for b, n := range c.alt {
			if n > bestCount || (n == bestCount && b < bestAlt) {
				bestAlt, bestCount = b, n
			}
		}
		frac := float64(bestCount) / float64(c.depth)
		if bestCount == 0 || frac < minFrac {
			continue
		}
		gt := vcf.Het
		if frac > 0.8 {
			gt = vcf.HomAlt
		}
		refSeq := ref.Contig(pos.Contig)
		out = append(out, vcf.Record{
			Chrom: refSeq.Name,
			Pos:   pos.Pos,
			Ref:   string(refSeq.Seq[pos.Pos]),
			Alt:   string(bestAlt),
			Qual:  float64(10 * bestCount),
			GT:    gt,
			Depth: c.depth,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Chrom != out[j].Chrom {
			return out[i].Chrom < out[j].Chrom
		}
		return out[i].Pos < out[j].Pos
	})
	return out
}

func TestPileupCallFindsSNVs(t *testing.T) {
	ref, donor, records := pipelineRecords(t, 701, 30000, 20)
	calls := pileupCall(records, ref, 5, 0.25, 10)
	if len(calls) == 0 {
		t.Fatal("pileup caller found nothing")
	}
	var truthSNVs []vcf.Record
	for _, v := range donor.Truth.Variants {
		if v.Type == genome.SNV {
			truthSNVs = append(truthSNVs, vcf.Record{
				Chrom: ref.Contigs[v.Contig].Name, Pos: v.Pos,
				Ref: string(v.Ref), Alt: string(v.Alt),
			})
		}
	}
	stats := vcf.Compare(calls, truthSNVs, 0)
	if stats.Recall() < 0.5 {
		t.Fatalf("pileup recall %.2f (TP=%d FN=%d)", stats.Recall(), stats.TruePositive, stats.FalseNegative)
	}
}

// TestPileupCallRecordWithoutQualities: a QUAL * record (empty Qual) must not
// panic the baseline caller, and its bases pass the quality filter — the same
// calls as when that record's qualities are all 'I'.
func TestPileupCallRecordWithoutQualities(t *testing.T) {
	ref, _, records := pipelineRecords(t, 701, 30000, 20)
	victim := -1
	for i := range records {
		if r := &records[i]; !r.Unmapped() && !r.Duplicate() && len(r.Seq) > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no mapped record to strip")
	}
	withI := append([]sam.Record(nil), records...)
	withI[victim].Qual = bytes.Repeat([]byte("I"), len(records[victim].Seq))
	noQual := append([]sam.Record(nil), records...)
	noQual[victim].Qual = nil
	want := pileupCall(withI, ref, 5, 0.25, 10)
	got := pileupCall(noQual, ref, 5, 0.25, 10)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("calls without qualities differ from calls with all-'I' qualities: %d vs %d", len(got), len(want))
	}
}

func TestHaplotypeCallerBeatsPileupOnIndels(t *testing.T) {
	ref, donor, records := pipelineRecords(t, 801, 40000, 20)
	hcCalls := CallVariantsFiltered(records, ref, DefaultConfig(), nil)
	puCalls := pileupCall(records, ref, 5, 0.25, 10)
	var truthIndels []vcf.Record
	for _, v := range donor.Truth.Variants {
		if v.Type != genome.SNV {
			truthIndels = append(truthIndels, vcf.Record{
				Chrom: ref.Contigs[v.Contig].Name, Pos: v.Pos,
				Ref: string(v.Ref), Alt: string(v.Alt),
			})
		}
	}
	if len(truthIndels) == 0 {
		t.Skip("no indels injected")
	}
	hc := vcf.Compare(hcCalls, truthIndels, 3)
	pu := vcf.Compare(puCalls, truthIndels, 3)
	if hc.TruePositive <= pu.TruePositive {
		t.Fatalf("haplotype caller indel TP %d should exceed pileup %d",
			hc.TruePositive, pu.TruePositive)
	}
}

func BenchmarkPairHMM(b *testing.B) {
	hap := bytes.Repeat([]byte("ACGTGCTAAGGTC"), 20) // 260 bp haplotype
	read := hap[50:150]
	qual := bytes.Repeat([]byte("I"), len(read))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairLL(read, qual, hap)
	}
}

func BenchmarkAssembleHaplotypes(b *testing.B) {
	ref := genome.Synthesize(genome.DefaultSynthConfig(901, 4000, 1))
	window := ref.Contigs[0].Seq[500:800]
	var reads [][]byte
	for i := 0; i+80 <= len(window); i += 7 {
		reads = append(reads, window[i:i+80])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assembleHaplotypes(window, reads, 19, 8, 2)
	}
}

// BenchmarkKernelFindActiveRegions reports the cost per aligned base of the
// paged pileup and of its map oracle on a 60 kb / 30x dataset.
func BenchmarkKernelFindActiveRegions(b *testing.B) {
	ref, _, records := pipelineRecords(b, 1101, 60000, 30)
	bases := 0
	for i := range records {
		if !records[i].Unmapped() && !records[i].Duplicate() {
			bases += len(records[i].Seq)
		}
	}
	for _, impl := range []struct {
		name string
		find func([]sam.Record, *genome.Reference, Config) []genome.Interval
	}{{"paged", FindActiveRegions}, {"map", findActiveRegionsMap}} {
		b.Run(impl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				impl.find(records, ref, DefaultConfig())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bases), "ns/base")
		})
	}
}
