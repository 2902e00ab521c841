package caller

import (
	"strconv"

	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/vcf"
)

// gVCF support: the paper's HaplotypeCallerProcess takes a useGVCF flag
// (Fig 3, Table 2). In gVCF mode the caller also emits reference blocks —
// runs of confidently homozygous-reference positions — so downstream joint
// genotyping can distinguish "no variant" from "no coverage".

// NonRefAlt is the symbolic allele of a gVCF reference block.
const NonRefAlt = "<NON_REF>"

// ReferenceBlocks computes gVCF reference blocks over interval: maximal runs
// of positions with depth >= minDepth that carry no variant call. Each block
// is a record with Alt NonRefAlt, Depth = the block's minimum depth, and
// Info["END"] = 1-based inclusive end, following the gVCF convention.
func ReferenceBlocks(records []sam.Record, ref *genome.Reference, interval genome.Interval, calls []vcf.Record, minDepth int) []vcf.Record {
	contig := ref.Contig(interval.Contig)
	if contig == nil || interval.Len() == 0 {
		return nil
	}
	depth := make([]int, interval.Len())
	for i := range records {
		r := &records[i]
		if r.Unmapped() || r.Duplicate() || int(r.RefID) != interval.Contig {
			continue
		}
		refPos := int(r.Pos)
		for _, op := range r.Cigar {
			switch op.Op {
			case 'M', '=', 'X':
				for k := 0; k < op.Len; k++ {
					p := refPos + k - interval.Start
					if p >= 0 && p < len(depth) {
						depth[p]++
					}
				}
				refPos += op.Len
			case 'D', 'N':
				refPos += op.Len
			}
		}
	}
	// Mask positions covered by variant calls (including deletion spans).
	variant := make([]bool, interval.Len())
	for _, c := range calls {
		id, ok := ref.ContigID(c.Chrom)
		if !ok || id != interval.Contig {
			continue
		}
		for off := 0; off < len(c.Ref); off++ {
			p := c.Pos + off - interval.Start
			if p >= 0 && p < len(variant) {
				variant[p] = true
			}
		}
	}
	var out []vcf.Record
	blockStart := -1
	blockMinDepth := 0
	flush := func(end int) {
		if blockStart < 0 {
			return
		}
		pos := interval.Start + blockStart
		out = append(out, vcf.Record{
			Chrom: contig.Name,
			Pos:   pos,
			Ref:   string(contig.Seq[pos]),
			Alt:   NonRefAlt,
			GT:    vcf.HomRef,
			Depth: blockMinDepth,
			Qual:  float64(min(blockMinDepth*3, 99)),
			Info:  map[string]string{"END": strconv.Itoa(interval.Start + end)}, // 1-based inclusive
		})
		blockStart = -1
	}
	for i := 0; i < len(depth); i++ {
		ok := depth[i] >= minDepth && !variant[i]
		if ok {
			if blockStart < 0 {
				blockStart = i
				blockMinDepth = depth[i]
			} else if depth[i] < blockMinDepth {
				blockMinDepth = depth[i]
			}
			continue
		}
		flush(i)
	}
	flush(len(depth))
	return out
}

// MergeGVCF interleaves variant calls and reference blocks in coordinate
// order, producing the gVCF record stream.
func MergeGVCF(calls, blocks []vcf.Record) []vcf.Record {
	out := append(append([]vcf.Record(nil), calls...), blocks...)
	vcf.SortRecords(out)
	return out
}
