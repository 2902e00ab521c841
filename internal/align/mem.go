package align

import (
	"cmp"
	"slices"
	"sync"

	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
)

// Config tunes the seed-and-extend aligner.
type Config struct {
	SeedLen       int     // exact-match seed length (default 19, as BWA-MEM)
	SeedStride    int     // distance between seed start positions (default 10)
	MaxSeedHits   int     // seeds with more hits are skipped as repetitive
	MaxCandidates int     // candidate loci extended per strand
	Flank         int     // reference window flank around a candidate locus
	MinScoreFrac  float64 // minimum score as a fraction of read length
	Scoring       Scoring
	// Pairing parameters.
	MinInsert, MaxInsert int
	ProperPairBonus      int
}

// DefaultConfig returns BWA-MEM-like parameters for 100 bp paired reads.
func DefaultConfig() Config {
	return Config{
		SeedLen:         19,
		SeedStride:      10,
		MaxSeedHits:     64,
		MaxCandidates:   8,
		Flank:           16,
		MinScoreFrac:    0.5,
		Scoring:         DefaultScoring(),
		MinInsert:       50,
		MaxInsert:       1000,
		ProperPairBonus: 20,
	}
}

// Alignment is one placement of a read.
type Alignment struct {
	Pos     genome.Position
	Reverse bool
	Score   int
	MapQ    uint8
	Cigar   sam.Cigar
	// Seq and Qual are in reference orientation (reverse-complemented for
	// reverse-strand alignments), as SAM requires.
	Seq, Qual []byte
}

// Aligner maps reads against an FM-indexed reference. It is safe for
// concurrent use.
type Aligner struct {
	idx *FMIndex
	cfg Config
	// scratch pools *seedScratch, one per AlignSeq call in flight.
	scratch sync.Pool
}

// seedScratch is the working memory seeding reuses from read to read.
type seedScratch struct {
	positions []int64
	cands     []candidate
}

// NewAligner creates an aligner over idx with cfg (zero fields take
// defaults).
func NewAligner(idx *FMIndex, cfg Config) *Aligner {
	def := DefaultConfig()
	if cfg.SeedLen <= 0 {
		cfg.SeedLen = def.SeedLen
	}
	if cfg.SeedStride <= 0 {
		cfg.SeedStride = def.SeedStride
	}
	if cfg.MaxSeedHits <= 0 {
		cfg.MaxSeedHits = def.MaxSeedHits
	}
	if cfg.MaxCandidates <= 0 {
		cfg.MaxCandidates = def.MaxCandidates
	}
	if cfg.Flank <= 0 {
		cfg.Flank = def.Flank
	}
	if cfg.MinScoreFrac <= 0 {
		cfg.MinScoreFrac = def.MinScoreFrac
	}
	if cfg.Scoring == (Scoring{}) {
		cfg.Scoring = def.Scoring
	}
	if cfg.MaxInsert <= 0 {
		cfg.MinInsert, cfg.MaxInsert = def.MinInsert, def.MaxInsert
	}
	if cfg.ProperPairBonus <= 0 {
		cfg.ProperPairBonus = def.ProperPairBonus
	}
	a := &Aligner{idx: idx, cfg: cfg}
	a.scratch.New = func() any { return new(seedScratch) }
	return a
}

// candidate is a clustered seed locus in concatenated-text coordinates.
type candidate struct {
	start int64
	votes int
}

// seedCandidates finds candidate alignment start offsets for seq via exact
// seed matches. The result lives in sc and is valid until its next use.
func (a *Aligner) seedCandidates(seq []byte, sc *seedScratch) []candidate {
	positions := sc.positions[:0]
	// Seeds holding anything but ACGT are skipped; bad is the last such
	// offset among seq[:scanned], so each base is classified once per read.
	bad, scanned := -1, 0
	for off := 0; off+a.cfg.SeedLen <= len(seq); off += a.cfg.SeedStride {
		for end := off + a.cfg.SeedLen; scanned < end; scanned++ {
			switch seq[scanned] {
			case 'A', 'C', 'G', 'T':
			default:
				bad = scanned
			}
		}
		if bad >= off {
			continue
		}
		iv := a.idx.BackwardSearch(seq[off : off+a.cfg.SeedLen])
		if iv.Size() == 0 || iv.Size() > a.cfg.MaxSeedHits {
			continue
		}
		first := len(positions)
		positions = a.idx.appendLocate(positions, iv, a.cfg.MaxSeedHits)
		for i := first; i < len(positions); i++ {
			positions[i] -= int64(off)
		}
	}
	sc.positions = positions
	if len(positions) == 0 {
		return nil
	}
	slices.Sort(positions)
	// Cluster within a small tolerance (indels shift candidate starts).
	const tol = 12
	out := sc.cands[:0]
	cur := candidate{start: positions[0], votes: 1}
	for _, p := range positions[1:] {
		if p-cur.start <= tol {
			cur.votes++
			continue
		}
		out = append(out, cur)
		cur = candidate{start: p, votes: 1}
	}
	out = append(out, cur)
	sc.cands = out
	// Not a stable sort: which of several equal-vote candidates survive the
	// cut below is pdqsort's choice, and the output bytes depend on it
	// (TestKernelAlignPairGolden pins them).
	slices.SortFunc(out, func(x, y candidate) int { return cmp.Compare(y.votes, x.votes) })
	if len(out) > a.cfg.MaxCandidates {
		out = out[:a.cfg.MaxCandidates]
	}
	return out
}

// candidateWindow returns the reference window a read of length m is fitted
// into for candidate c — the candidate's locus with Flank bases either side,
// clamped to its contig — and the window's contig and start. ok is false
// when the candidate resolves to no contig or the clamped window is shorter
// than half the read.
func (a *Aligner) candidateWindow(m int, c candidate) (window []byte, contig, start int, ok bool) {
	pos, ok := a.idx.Resolve(c.start)
	if !ok {
		// Candidate begins before contig 0 or inside the sentinel.
		return nil, 0, 0, false
	}
	start = pos.Pos - a.cfg.Flank
	window = a.idx.ref.Slice(pos.Contig, start, pos.Pos+m+a.cfg.Flank)
	if start < 0 {
		start = 0
	}
	return window, pos.Contig, start, len(window) >= m/2
}

// alignOriented aligns one orientation of the read, appending scored
// placements (unsorted) to dst.
func (a *Aligner) alignOriented(dst []Alignment, seq []byte, reverse bool, sc *seedScratch) []Alignment {
	minScore := int(a.cfg.MinScoreFrac * float64(len(seq)))
	for _, c := range a.seedCandidates(seq, sc) {
		window, contig, start, ok := a.candidateWindow(len(seq), c)
		if !ok {
			continue
		}
		fit := fitAlign(seq, window, a.cfg.Scoring)
		if fit.Score < minScore {
			continue
		}
		dst = append(dst, Alignment{
			Pos:     genome.Position{Contig: contig, Pos: start + fit.RefStart},
			Reverse: reverse,
			Score:   fit.Score,
			Cigar:   fit.Cigar,
		})
	}
	return dst
}

// AlignSeq aligns a single read sequence (with quality), returning all
// plausible placements sorted by descending score; MapQ is assigned from the
// best-versus-second-best score gap. The first element (when present) is the
// primary alignment.
func (a *Aligner) AlignSeq(seq, qual []byte) []Alignment {
	sc := a.scratch.Get().(*seedScratch)
	rc := genome.ReverseComplement(seq)
	all := a.alignOriented(nil, seq, false, sc)
	all = a.alignOriented(all, rc, true, sc)
	a.scratch.Put(sc)
	if len(all) == 0 {
		return nil
	}
	slices.SortFunc(all, func(x, y Alignment) int {
		return cmp.Or(
			cmp.Compare(y.Score, x.Score),
			cmp.Compare(x.Pos.Contig, y.Pos.Contig),
			cmp.Compare(x.Pos.Pos, y.Pos.Pos),
		)
	})
	// Deduplicate identical placements.
	dedup := all[:1]
	for _, al := range all[1:] {
		last := dedup[len(dedup)-1]
		if al.Pos == last.Pos && al.Reverse == last.Reverse {
			continue
		}
		dedup = append(dedup, al)
	}
	all = dedup
	// MAPQ: BWA-MEM-like heuristic on the score gap.
	best := all[0].Score
	second := 0
	if len(all) > 1 {
		second = all[1].Score
	}
	mapq := 6 * (best - second)
	if len(all) == 1 {
		mapq = 60
	}
	if mapq > 60 {
		mapq = 60
	}
	if mapq < 0 {
		mapq = 0
	}
	all[0].MapQ = uint8(mapq)
	var rq []byte // reversed qualities, shared by the reverse placements
	for i := range all {
		if all[i].Reverse {
			if rq == nil {
				rq = reverseBytes(qual)
			}
			all[i].Seq = rc
			all[i].Qual = rq
		} else {
			all[i].Seq = seq
			all[i].Qual = qual
		}
	}
	return all
}

func reverseBytes(b []byte) []byte {
	out := make([]byte, len(b))
	for i := range b {
		out[len(b)-1-i] = b[i]
	}
	return out
}

// AlignPair aligns both mates of a paired-end read and scores pair
// combinations, preferring properly oriented pairs within the insert-size
// range. It returns a SAM record per mate (unmapped records when a mate
// fails to align).
func (a *Aligner) AlignPair(p *fastq.Pair) (sam.Record, sam.Record) {
	als1 := a.AlignSeq(p.R1.Seq, p.R1.Qual)
	als2 := a.AlignSeq(p.R2.Seq, p.R2.Qual)

	best1, best2, proper := a.pickPair(als1, als2)
	r1 := a.toRecord(&p.R1, best1, sam.FlagFirstOfPair)
	r2 := a.toRecord(&p.R2, best2, sam.FlagSecondOfPair)
	crossLink(&r1, &r2, proper)
	return r1, r2
}

// pickPair selects the mate placements maximizing combined score with a
// proper-pair bonus.
func (a *Aligner) pickPair(als1, als2 []Alignment) (*Alignment, *Alignment, bool) {
	var best1, best2 *Alignment
	proper := false
	bestScore := -1 << 30
	if len(als1) > 0 {
		best1 = &als1[0]
		bestScore = als1[0].Score
	}
	if len(als2) > 0 {
		best2 = &als2[0]
		if best1 != nil {
			bestScore = best1.Score + best2.Score
		} else {
			bestScore = best2.Score
		}
	}
	if len(als1) == 0 || len(als2) == 0 {
		return best1, best2, false
	}
	// Bounded search over top placements for a proper pair.
	lim := func(n int) int {
		if n > 4 {
			return 4
		}
		return n
	}
	for i := 0; i < lim(len(als1)); i++ {
		for j := 0; j < lim(len(als2)); j++ {
			a1, a2 := &als1[i], &als2[j]
			if !properOrientation(a1, a2, a.cfg.MinInsert, a.cfg.MaxInsert) {
				continue
			}
			score := a1.Score + a2.Score + a.cfg.ProperPairBonus
			if score > bestScore {
				bestScore, best1, best2, proper = score, a1, a2, true
			}
		}
	}
	if !proper && best1 != nil && best2 != nil &&
		properOrientation(best1, best2, a.cfg.MinInsert, a.cfg.MaxInsert) {
		proper = true
	}
	return best1, best2, proper
}

// properOrientation reports whether two placements form a forward-reverse
// pair on one contig within the insert range.
func properOrientation(a1, a2 *Alignment, minIns, maxIns int) bool {
	if a1.Pos.Contig != a2.Pos.Contig || a1.Reverse == a2.Reverse {
		return false
	}
	fwd, rev := a1, a2
	if fwd.Reverse {
		fwd, rev = rev, fwd
	}
	insert := rev.Pos.Pos + rev.Cigar.RefLen() - fwd.Pos.Pos
	return insert >= minIns && insert <= maxIns
}

// toRecord converts an alignment (possibly nil = unmapped) to a SAM record.
func (a *Aligner) toRecord(read *fastq.Record, al *Alignment, mateFlag uint16) sam.Record {
	rec := sam.Record{
		Name: trimMateSuffix(read.Name),
		Flag: sam.FlagPaired | mateFlag,
		Seq:  read.Seq,
		Qual: read.Qual,
	}
	if al == nil {
		rec.Flag |= sam.FlagUnmapped
		rec.RefID, rec.Pos = -1, -1
		rec.MateRef, rec.MatePos = -1, -1
		return rec
	}
	rec.RefID = int32(al.Pos.Contig)
	rec.Pos = int32(al.Pos.Pos)
	rec.MapQ = al.MapQ
	rec.Cigar = al.Cigar
	rec.Seq = al.Seq
	rec.Qual = al.Qual
	if al.Reverse {
		rec.Flag |= sam.FlagReverse
	}
	return rec
}

// crossLink fills mate fields and TLEN on a record pair.
func crossLink(r1, r2 *sam.Record, proper bool) {
	link := func(r, mate *sam.Record) {
		if mate.Unmapped() {
			r.Flag |= sam.FlagMateUnmapped
			r.MateRef, r.MatePos = -1, -1
			return
		}
		r.MateRef, r.MatePos = mate.RefID, mate.Pos
		if mate.Reverse() {
			r.Flag |= sam.FlagMateReverse
		}
	}
	link(r1, r2)
	link(r2, r1)
	if proper && !r1.Unmapped() && !r2.Unmapped() {
		r1.Flag |= sam.FlagProperPair
		r2.Flag |= sam.FlagProperPair
		lo, hi := r1, r2
		if lo.Pos > hi.Pos {
			lo, hi = hi, lo
		}
		tlen := hi.Pos + int32(hi.Cigar.RefLen()) - lo.Pos
		lo.TempLen = tlen
		hi.TempLen = -tlen
	}
}

func trimMateSuffix(name string) string {
	if n := len(name); n > 2 && name[n-2] == '/' && (name[n-1] == '1' || name[n-1] == '2') {
		return name[:n-2]
	}
	return name
}
