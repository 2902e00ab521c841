// Package genome models reference genomes: contigs, genomic positions and
// intervals, FASTA serialization, and synthetic genome generation used by the
// test workloads. It is the lowest substrate of the GPF reproduction; every
// other module addresses the genome through the types defined here.
package genome

import (
	"fmt"
	"sort"
)

// Bases used throughout the framework. Sequences are stored as upper-case
// ASCII in []byte form; the compression layer re-encodes them to 2 bits.
const Alphabet = "ACGT"

// Contig is one named sequence in a reference genome (a chromosome in the
// paper's hg19 reference).
type Contig struct {
	Name string
	Seq  []byte
}

// Len returns the number of bases in the contig.
func (c *Contig) Len() int { return len(c.Seq) }

// Reference is an in-memory reference genome: an ordered list of contigs with
// an index from contig name to contig ID. Contig IDs are dense and equal to
// the contig's position in Contigs, matching the (contig ID, position)
// addressing used by the paper's PartitionInfo structure (Fig 8).
type Reference struct {
	Contigs []Contig
	index   map[string]int
}

// NewReference builds a Reference from contigs, constructing the name index.
func NewReference(contigs []Contig) *Reference {
	r := &Reference{Contigs: contigs, index: make(map[string]int, len(contigs))}
	for i, c := range contigs {
		r.index[c.Name] = i
	}
	return r
}

// ContigID returns the dense ID for a contig name.
// The second result reports whether the name exists.
func (r *Reference) ContigID(name string) (int, bool) {
	id, ok := r.index[name]
	return id, ok
}

// Contig returns the contig with the given ID, or nil if out of range.
func (r *Reference) Contig(id int) *Contig {
	if id < 0 || id >= len(r.Contigs) {
		return nil
	}
	return &r.Contigs[id]
}

// NumContigs returns the number of contigs.
func (r *Reference) NumContigs() int { return len(r.Contigs) }

// TotalLen returns the total number of bases across all contigs.
func (r *Reference) TotalLen() int64 {
	var n int64
	for i := range r.Contigs {
		n += int64(r.Contigs[i].Len())
	}
	return n
}

// Lengths returns the per-contig lengths in contig-ID order. This is the
// referenceLength list taken by the paper's ReadRepartitioner (Table 2).
func (r *Reference) Lengths() []int {
	out := make([]int, len(r.Contigs))
	for i := range r.Contigs {
		out[i] = r.Contigs[i].Len()
	}
	return out
}

// Slice returns the bases of contig id in [start, end). It clamps the range
// to the contig bounds so callers may over-ask near contig edges.
func (r *Reference) Slice(id, start, end int) []byte {
	c := r.Contig(id)
	if c == nil {
		return nil
	}
	if start < 0 {
		start = 0
	}
	if end > len(c.Seq) {
		end = len(c.Seq)
	}
	if start >= end {
		return nil
	}
	return c.Seq[start:end]
}

// Position is a genomic coordinate: a contig ID plus a 0-based offset.
type Position struct {
	Contig int
	Pos    int
}

// String renders the position as contig:pos for diagnostics.
func (p Position) String() string { return fmt.Sprintf("%d:%d", p.Contig, p.Pos) }

// Interval is a half-open genomic range [Start, End) on one contig.
type Interval struct {
	Contig int
	Start  int
	End    int
}

// Len returns the interval length (0 if degenerate).
func (iv Interval) Len() int {
	if iv.End <= iv.Start {
		return 0
	}
	return iv.End - iv.Start
}

// Contains reports whether position pos on iv.Contig lies inside the interval.
func (iv Interval) Contains(contig, pos int) bool {
	return contig == iv.Contig && pos >= iv.Start && pos < iv.End
}

// Overlaps reports whether two intervals share at least one base.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Contig == other.Contig && iv.Start < other.End && other.Start < iv.End
}

// MergeIntervals sorts intervals and merges overlapping or adjacent ones.
// It is used by the indel-realignment target detector.
func MergeIntervals(ivs []Interval) []Interval {
	if len(ivs) == 0 {
		return nil
	}
	sorted := make([]Interval, len(ivs))
	copy(sorted, ivs)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Contig != sorted[j].Contig {
			return sorted[i].Contig < sorted[j].Contig
		}
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].End < sorted[j].End
	})
	out := sorted[:1]
	for _, iv := range sorted[1:] {
		last := &out[len(out)-1]
		if iv.Contig == last.Contig && iv.Start <= last.End {
			if iv.End > last.End {
				last.End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// Complement returns the Watson-Crick complement of a base; non-ACGT bases
// map to 'N'.
func Complement(b byte) byte {
	switch b {
	case 'A', 'a':
		return 'T'
	case 'C', 'c':
		return 'G'
	case 'G', 'g':
		return 'C'
	case 'T', 't':
		return 'A'
	default:
		return 'N'
	}
}

// complementTab is Complement as a 256-entry lookup table: one indexed load
// per base instead of a branch ladder. Built from Complement itself so the
// two can never drift.
var complementTab = func() (t [256]byte) {
	for i := range t {
		t[i] = Complement(byte(i))
	}
	return
}()

// ReverseComplement returns the reverse complement of seq as a new slice.
func ReverseComplement(seq []byte) []byte {
	out := make([]byte, len(seq))
	// Walk both ends toward the middle: every iteration fills two output
	// bytes from one cache line at each end of the input.
	for i, j := 0, len(seq)-1; i <= j; i, j = i+1, j-1 {
		out[j], out[i] = complementTab[seq[i]], complementTab[seq[j]]
	}
	return out
}

// baseCodeTab maps every byte to its 2-bit code, -1 for non-ACGT.
var baseCodeTab = func() (t [256]int8) {
	for i := range t {
		t[i] = -1
	}
	t['A'], t['a'] = 0, 0
	t['C'], t['c'] = 1, 1
	t['G'], t['g'] = 2, 2
	t['T'], t['t'] = 3, 3
	return
}()

// BaseCode maps a base to its 2-bit code (A=0, C=1, G=2, T=3). Non-ACGT bases
// return -1; the compression layer packs them as code 0 and restores them
// from the seq column's exception list.
func BaseCode(b byte) int {
	return int(baseCodeTab[b])
}

// CodeBase is the inverse of BaseCode for codes 0..3.
func CodeBase(code int) byte {
	return Alphabet[code&3]
}
