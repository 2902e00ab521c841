package caller

import (
	"bytes"
	"cmp"
	"math"
	"slices"

	"github.com/gpf-go/gpf/internal/align"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/vcf"
)

// hapVariant is a variant implied by a haplotype relative to the reference
// window (coordinates are reference-absolute).
type hapVariant struct {
	pos      int
	ref, alt string
}

// variantsFromHaplotype aligns hap against the reference window and extracts
// SNVs and indels in VCF representation (indels anchored on the previous
// reference base).
func variantsFromHaplotype(hap, refWindow []byte, windowStart int, sc align.Scoring) []hapVariant {
	_, refStart, cigar := align.FitAlign(hap, refWindow, sc)
	var out []hapVariant
	hapPos, refPos := 0, refStart
	for _, op := range cigar {
		switch op.Op {
		case 'M', '=', 'X':
			for k := 0; k < op.Len; k++ {
				if hap[hapPos+k] != refWindow[refPos+k] {
					out = append(out, hapVariant{
						pos: windowStart + refPos + k,
						ref: string(refWindow[refPos+k]),
						alt: string(hap[hapPos+k]),
					})
				}
			}
			hapPos += op.Len
			refPos += op.Len
		case 'I':
			if refPos > 0 {
				anchor := refWindow[refPos-1]
				out = append(out, hapVariant{
					pos: windowStart + refPos - 1,
					ref: string(anchor),
					alt: string(anchor) + string(hap[hapPos:hapPos+op.Len]),
				})
			}
			hapPos += op.Len
		case 'D':
			if refPos > 0 {
				anchor := refWindow[refPos-1]
				out = append(out, hapVariant{
					pos: windowStart + refPos - 1,
					ref: string(anchor) + string(refWindow[refPos:refPos+op.Len]),
					alt: string(anchor),
				})
			}
			refPos += op.Len
		}
	}
	return out
}

// CallRegion genotypes one active region: assemble haplotypes from the
// overlapping reads, score reads against haplotypes with the pair-HMM, pick
// the maximum-likelihood diploid haplotype pair, and emit the variants it
// implies.
func CallRegion(records []sam.Record, ref *genome.Reference, region genome.Interval, cfg Config) []vcf.Record {
	contig := ref.Contig(region.Contig)
	if contig == nil {
		return nil
	}
	winStart := region.Start - cfg.RegionPad
	if winStart < 0 {
		winStart = 0
	}
	winEnd := region.End + cfg.RegionPad
	if winEnd > contig.Len() {
		winEnd = contig.Len()
	}
	if winStart >= winEnd {
		return nil // empty or inverted region: nothing to assemble
	}
	refWindow := contig.Seq[winStart:winEnd]
	if hasN(refWindow) {
		return nil // assembly anchors require clean reference k-mers
	}

	// Gather overlapping, usable reads in a total order of their content, so
	// the sample below and the likelihood sums do not depend on the order
	// the partition holds them in (a shuffle's map order, which moves with
	// its bucket count).
	var keep []int
	for i := range records {
		r := &records[i]
		if r.Unmapped() || r.Duplicate() || len(r.Seq) == 0 {
			continue
		}
		if int(r.RefID) != region.Contig {
			continue
		}
		if int(r.End()) <= winStart || int(r.Pos) >= winEnd {
			continue
		}
		keep = append(keep, i)
	}
	if len(keep) == 0 {
		return nil
	}
	slices.SortFunc(keep, func(i, j int) int {
		a, b := &records[i], &records[j]
		if c := sam.CoordinateCompare(a, b); c != 0 {
			return c
		}
		if a.Flag != b.Flag {
			return cmp.Compare(a.Flag, b.Flag)
		}
		if c := bytes.Compare(a.Seq, b.Seq); c != 0 {
			return c
		}
		return bytes.Compare(a.Qual, b.Qual)
	})
	// Downsample pileups: keep a deterministic stride sample so the
	// pair-HMM cost per region is bounded regardless of coverage spikes.
	n := len(keep)
	if limit := cfg.MaxReadsPerRegion; limit > 0 && n > limit {
		n = limit
	}
	stride := float64(len(keep)) / float64(n)
	seqs := make([][]byte, n)
	quals := make([][]byte, n)
	for k := range seqs {
		r := &records[keep[int(float64(k)*stride)]]
		seqs[k], quals[k] = r.Seq, r.Qual
	}

	haps := assembleHaplotypes(refWindow, seqs, cfg.K, cfg.MaxHaplotypes, 2)
	if len(haps) == 1 {
		return nil // only the reference haplotype: nothing to call
	}

	// Likelihood matrix: L[read][hap].
	L := PairHMMBatch(seqs, quals, haps)

	// Diploid genotyping over haplotype pairs (h1 <= h2).
	bestH1, bestH2 := 0, 0
	bestLL := math.Inf(-1)
	var homRefLL float64
	ln2 := math.Log(2)
	for h1 := 0; h1 < len(haps); h1++ {
		for h2 := h1; h2 < len(haps); h2++ {
			ll := 0.0
			for i := range L {
				ll += logSumExp2(L[i][h1], L[i][h2]) - ln2
			}
			if h1 == 0 && h2 == 0 {
				homRefLL = ll
			}
			if ll > bestLL {
				bestLL, bestH1, bestH2 = ll, h1, h2
			}
		}
	}
	if bestH1 == 0 && bestH2 == 0 {
		return nil
	}
	qual := 10 * (bestLL - homRefLL) / math.Ln10
	if qual < cfg.MinQual {
		return nil
	}
	if qual > 3000 {
		qual = 3000
	}

	// Variants on each chosen haplotype; bit k marks the k-th of the pair.
	sc := align.DefaultScoring()
	onHap := map[hapVariant]uint8{}
	for k, h := range [2]int{bestH1, bestH2} {
		if h == 0 {
			continue
		}
		for _, v := range variantsFromHaplotype(haps[h], refWindow, winStart, sc) {
			onHap[v] |= 1 << k
		}
	}
	var out []vcf.Record
	for v, on := range onHap {
		gt := vcf.Het
		if on == 3 {
			gt = vcf.HomAlt
		}
		// Variants only inside the (unpadded) active region to avoid edge
		// artifacts from assembly anchoring.
		if v.pos < region.Start || v.pos >= region.End {
			continue
		}
		out = append(out, vcf.Record{
			Chrom: contig.Name,
			Pos:   v.pos,
			Ref:   v.ref,
			Alt:   v.alt,
			Qual:  qual,
			GT:    gt,
			Depth: len(keep), // the region's reads, not the sample's
		})
	}
	vcf.SortRecords(out)
	return out
}

// CallVariantsFiltered runs active-region detection and per-region
// genotyping over a partition of records, returning sorted VCF records — the
// body of the HaplotypeCallerProcess — for the active regions keep returns
// true for (nil keeps all). Partitioned execution passes an ownership filter
// so a region whose reads cross a partition boundary is genotyped by one
// partition only — the one whose interval contains the region's midpoint —
// keeping the expensive pair-HMM work proportional to owned territory.
func CallVariantsFiltered(records []sam.Record, ref *genome.Reference, cfg Config, keep func(genome.Interval) bool) []vcf.Record {
	regions := FindActiveRegions(records, ref, cfg)
	var out []vcf.Record
	for _, region := range regions {
		if keep != nil && !keep(region) {
			continue
		}
		out = append(out, CallRegion(records, ref, region, cfg)...)
	}
	// Deduplicate variants discovered from overlapping regions.
	return vcf.SortDedup(out)
}
