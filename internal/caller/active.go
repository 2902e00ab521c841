// Package caller implements the Caller stage: a HaplotypeCaller-equivalent
// variant caller (§2.1, Table 2: "calling variants via local de-novo
// assembly of haplotypes in an active region based on paired-HMM algorithm").
// The pipeline is: detect active regions from pileup disagreement, assemble
// candidate haplotypes with a local de Bruijn graph, score every read against
// every haplotype with a pair-HMM (probability space, shared haplotype
// prefixes computed once; pairhmm.go), genotype diploid haplotype
// pairs, and emit VCF records. A simple pileup caller is included as the
// baseline comparator.
package caller

import (
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
)

// Config tunes the caller.
type Config struct {
	K              int     // de Bruijn k-mer size, 4..32 (2-bit codes in a uint64)
	MaxHaplotypes  int     // haplotypes kept per region
	RegionPad      int     // reference padding around an active region
	MinBaseQual    int     // bases below this Phred are ignored in detection
	MinActiveFrac  float64 // fraction of disagreeing bases that activates a site
	MinActiveDepth int     // minimum depth for a site to activate
	MinQual        float64 // emit threshold on variant QUAL
	// MaxReadsPerRegion caps the reads entering the pair-HMM per active
	// region (GATK-style downsampling): coverage pileups beyond ~10,000x
	// (§4.4) would otherwise make single regions arbitrarily expensive.
	MaxReadsPerRegion int
}

// DefaultConfig returns HaplotypeCaller-like parameters for 100 bp reads.
func DefaultConfig() Config {
	return Config{
		K:                 19,
		MaxHaplotypes:     8,
		RegionPad:         30,
		MinBaseQual:       10,
		MinActiveFrac:     0.15,
		MinActiveDepth:    3,
		MinQual:           20,
		MaxReadsPerRegion: 256,
	}
}

// pileupCell accumulates per-reference-position evidence.
type pileupCell struct {
	depth    int32
	mismatch int32
	indel    int32
}

// pileupPageBits sizes a pileup page: 4096 positions, 48 KB.
const pileupPageBits = 12

type pileupPage [1 << pileupPageBits]pileupCell

// pileup maps reference positions to cells through dense pages, so memory
// stays proportional to the covered reference and a read costs one map lookup
// per page it touches (the last page is cached) instead of one per base.
type pileup struct {
	pages   map[genome.Position]*pileupPage // keyed by {contig, pos >> pileupPageBits}
	lastKey genome.Position
	last    *pileupPage
}

func (p *pileup) cell(contig, pos int) *pileupCell {
	key := genome.Position{Contig: contig, Pos: pos >> pileupPageBits}
	if p.last == nil || key != p.lastKey {
		pg := p.pages[key]
		if pg == nil {
			pg = new(pileupPage)
			p.pages[key] = pg
		}
		p.lastKey, p.last = key, pg
	}
	return &p.last[pos&(len(p.last)-1)]
}

// pileUp accumulates the evidence of every usable record. Evidence a record
// places outside its contig is ignored.
func pileUp(records []sam.Record, ref *genome.Reference, minBaseQual int) pileup {
	cells := pileup{pages: map[genome.Position]*pileupPage{}}
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
					// A base past the end of the quality string counts, as it
					// does in phredToProb (SAM allows QUAL "*").
					if q := readPos + k; q < len(r.Qual) && int(r.Qual[q])-33 < minBaseQual {
						continue
					}
					c := cells.cell(contig, rp)
					c.depth++
					if r.Seq[readPos+k] != refSeq.Seq[rp] {
						c.mismatch++
					}
				}
				readPos += op.Len
				refPos += op.Len
			case 'I', 'D', 'N':
				if refPos >= 0 && refPos < len(refSeq.Seq) {
					c := cells.cell(contig, refPos)
					c.depth++
					c.indel++
				}
				if op.Op == 'I' {
					readPos += op.Len
				} else {
					refPos += op.Len
				}
			case 'S':
				readPos += op.Len
			}
		}
	}
	return cells
}

// FindActiveRegions scans aligned records for reference positions where
// reads disagree with the reference (mismatches or indel breakpoints) and
// returns padded, merged intervals around them.
func FindActiveRegions(records []sam.Record, ref *genome.Reference, cfg Config) []genome.Interval {
	cells := pileUp(records, ref, cfg.MinBaseQual)
	var ivs []genome.Interval
	for key, page := range cells.pages {
		contigLen := ref.Contig(key.Contig).Len()
		for off := range page {
			c := &page[off]
			if c.depth == 0 || int(c.depth) < cfg.MinActiveDepth {
				continue // depth 0: a position of the page no read touched
			}
			frac := float64(c.mismatch+c.indel*2) / float64(c.depth)
			if frac < cfg.MinActiveFrac {
				continue
			}
			pos := key.Pos<<pileupPageBits + off
			ivs = append(ivs, genome.Interval{
				Contig: key.Contig,
				Start:  max(pos-cfg.RegionPad, 0),
				End:    min(pos+cfg.RegionPad, contigLen),
			})
		}
	}
	return genome.MergeIntervals(ivs)
}
