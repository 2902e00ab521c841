package cleaner

import (
	"fmt"
	"math"

	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
)

// Base quality score recalibration (GATK BaseRecalibrator equivalent).
// Sequencers report miscalibrated quality scores; BQSR counts observed
// mismatches against the reference — excluding known variant sites — binned
// by covariates (reported quality, machine cycle, dinucleotide context) and
// rewrites each base's quality to the empirically observed error rate.
// The two-pass structure matches the paper: a distributed counting pass
// reduced to the driver (the serial Collect of §5.2.2, where the mask table
// broadcast throttles parallel efficiency), then a parallel apply pass.

// KnownSites reports whether (contig, pos) is a known variant site that must
// be excluded from error counting (the dbsnp_138 role in §5.1).
type KnownSites func(contig, pos int) bool

// covariate bins.
const (
	maxQual    = 64
	maxCycle   = 512
	numContext = 16 // previous base × current base, 2 bits each
)

// cycleBin clamps a machine cycle into table range.
func cycleBin(cycle int) int {
	if cycle < 0 {
		cycle = 0
	}
	if cycle >= maxCycle {
		cycle = maxCycle - 1
	}
	return cycle
}

// contextBin returns the dinucleotide context bin of (prev, cur), or -1 when
// either base is not ACGT.
func contextBin(prev, cur byte) int {
	p, c := genome.BaseCode(prev), genome.BaseCode(cur)
	if p < 0 || c < 0 {
		return -1
	}
	return p*4 + c
}

// counter accumulates (observations, errors) for one covariate bin.
type counter struct {
	Obs  int64
	Errs int64
}

// empiricalQual converts a counter into a Phred-scaled empirical quality
// with a Laplace-style prior (GATK uses a similar smoothing).
func (c counter) empiricalQual() float64 {
	p := (float64(c.Errs) + 1) / (float64(c.Obs) + 2)
	q := -10 * math.Log10(p)
	if q < 1 {
		q = 1
	}
	if q > 60 {
		q = 60
	}
	return q
}

// RecalTable is the covariate table built by pass 1. Tables from different
// partitions merge associatively, so the engine can reduce them.
type RecalTable struct {
	Global  counter
	ByQual  [maxQual]counter
	ByCycle [maxCycle]counter
	ByCtx   [numContext]counter
}

// Merge folds other into t (associative, for the engine reduce).
func (t *RecalTable) Merge(other *RecalTable) *RecalTable {
	if t == nil {
		return other
	}
	if other == nil {
		return t
	}
	t.Global.Obs += other.Global.Obs
	t.Global.Errs += other.Global.Errs
	for i := range t.ByQual {
		t.ByQual[i].Obs += other.ByQual[i].Obs
		t.ByQual[i].Errs += other.ByQual[i].Errs
	}
	for i := range t.ByCycle {
		t.ByCycle[i].Obs += other.ByCycle[i].Obs
		t.ByCycle[i].Errs += other.ByCycle[i].Errs
	}
	for i := range t.ByCtx {
		t.ByCtx[i].Obs += other.ByCtx[i].Obs
		t.ByCtx[i].Errs += other.ByCtx[i].Errs
	}
	return t
}

// SizeBytes estimates the serialized table size (for broadcast accounting).
func (t *RecalTable) SizeBytes() int64 {
	return int64(16 * (1 + maxQual + maxCycle + numContext))
}

// BuildRecalTable runs BQSR pass 1 over one partition: count observations
// and mismatches per covariate over every aligned (M/=/X) base, skipping
// duplicates, unmapped reads, known variant sites, N bases and low-quality
// bases.
func BuildRecalTable(records []sam.Record, ref *genome.Reference, known KnownSites) *RecalTable {
	t := &RecalTable{}
	for i := range records {
		r := &records[i]
		if r.Unmapped() || r.Duplicate() || len(r.Seq) == 0 || len(r.Qual) != len(r.Seq) {
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
				for k := 0; k < op.Len && readPos+k < len(r.Seq); k++ {
					t.observe(r, readPos+k, contig, refPos+k, refSeq.Seq, known)
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
	return t
}

// observe counts one aligned base of r against the reference.
func (t *RecalTable) observe(r *sam.Record, readPos, contig, refPos int, refSeq []byte, known KnownSites) {
	if refPos < 0 || refPos >= len(refSeq) {
		return
	}
	if known != nil && known(contig, refPos) {
		return
	}
	base := r.Seq[readPos]
	refBase := refSeq[refPos]
	if base == 'N' || refBase == 'N' {
		return
	}
	q := int(r.Qual[readPos]) - 33
	if q < 2 {
		return
	}
	if q >= maxQual {
		q = maxQual - 1
	}
	isErr := int64(0)
	if base != refBase {
		isErr = 1
	}
	t.Global.Obs++
	t.Global.Errs += isErr
	t.ByQual[q].Obs++
	t.ByQual[q].Errs += isErr
	cb := cycleBin(readPos)
	t.ByCycle[cb].Obs++
	t.ByCycle[cb].Errs += isErr
	var prev byte = 'N'
	if readPos > 0 {
		prev = r.Seq[readPos-1]
	}
	if ctx := contextBin(prev, base); ctx >= 0 {
		t.ByCtx[ctx].Obs++
		t.ByCtx[ctx].Errs += isErr
	}
}

// recalLUT is a RecalTable prepared for the apply pass. A base's recalibrated
// Phred is the GATK delta decomposition — empirical(Q) shifted by the cycle
// and context deltas relative to the global empirical quality — as the
// per-base oracle recalibratedQual (bqsr_kernel_test.go) computes it. Its
// three empirical qualities depend only on the table's 593 bins, so they are
// computed once per call instead of once per base. The cycle and context
// entries hold empiricalQual() - global, the very float64 recalibratedQual
// adds, and +0 for a bin with no observations, where it adds nothing: x + 0
// is x for every x >= 1, so the per-base sum is the reference's, bit for bit.
type recalLUT struct {
	// byQual is indexed by the raw quality byte: the -33 offset and the clamp
	// into 0..maxQual-1 are folded in.
	byQual  [256]float64
	byCycle [maxCycle]float64
	// byCtx is indexed by prev*5+cur over base codes 0..3 and 4 for anything
	// else (N, or no previous base), whose rows and columns stay +0.
	byCtx [25]float64
}

// baseCode5 maps a base to its 2-bit code, or 4 when it has none.
var baseCode5 = func() (t [256]uint8) {
	for b := range t {
		t[b] = 4
		if c := genome.BaseCode(byte(b)); c >= 0 {
			t[b] = uint8(c)
		}
	}
	return
}()

// prepare fills the lookup form of t. t.Global.Obs must be positive.
func (t *RecalTable) prepare(lut *recalLUT) {
	global := t.Global.empiricalQual()
	for b := range lut.byQual {
		q := b - 33
		if q >= maxQual {
			q = maxQual - 1
		}
		if q < 0 {
			q = 0
		}
		lut.byQual[b] = t.ByQual[q].empiricalQual()
	}
	for c := range lut.byCycle {
		if t.ByCycle[c].Obs > 0 {
			lut.byCycle[c] = t.ByCycle[c].empiricalQual() - global
		}
	}
	for ctx := range t.ByCtx {
		if t.ByCtx[ctx].Obs > 0 {
			lut.byCtx[ctx/4*5+ctx%4] = t.ByCtx[ctx].empiricalQual() - global
		}
	}
}

// qual is recalibratedQual(qualByte-33, cycle, …)+33 for base codes prev and
// cur (baseCode5): two clamps, three loads and the reference's two float adds
// in the reference's order, hence the same rounded Phred.
func (lut *recalLUT) qual(qualByte byte, cycle int, prev, cur uint8) byte {
	out := lut.byQual[qualByte]
	out += lut.byCycle[min(cycle, maxCycle-1)]
	out += lut.byCtx[prev*5+cur]
	qi := int(out + 0.5)
	if qi < 2 {
		qi = 2
	}
	if qi > 60 {
		qi = 60
	}
	return byte(qi + 33)
}

// ApplyRecalibration runs BQSR pass 2 over one partition, replacing every
// mapped record's quality string with the recalibrated one (the old string is
// left untouched for whoever else holds it). The new strings are disjoint
// regions of one slab per call, capacity clipped to length: in-place writes
// stay record-local, appends copy. Each base goes through the prepared table
// (recalLUT) instead of four math.Log10.
func ApplyRecalibration(records []sam.Record, t *RecalTable) error {
	if t == nil {
		return fmt.Errorf("cleaner: nil recalibration table")
	}
	total := 0
	for i := range records {
		if r := &records[i]; !r.Unmapped() && len(r.Qual) == len(r.Seq) {
			total += len(r.Qual)
		}
	}
	slab := make([]byte, total)
	var lut recalLUT
	if t.Global.Obs > 0 {
		t.prepare(&lut)
	}
	for i := range records {
		r := &records[i]
		if r.Unmapped() || len(r.Qual) != len(r.Seq) {
			continue
		}
		n := len(r.Qual)
		newQual := slab[:n:n]
		slab = slab[n:]
		if t.Global.Obs == 0 {
			copy(newQual, r.Qual) // no observations: reported qualities stand
			r.Qual = newQual
			continue
		}
		prev := uint8(4)
		for j, b := range r.Seq {
			cur := baseCode5[b]
			newQual[j] = lut.qual(r.Qual[j], j, prev, cur)
			prev = cur
		}
		r.Qual = newQual
	}
	return nil
}
