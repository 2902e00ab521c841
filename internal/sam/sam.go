// Package sam implements the SAM alignment format: records, FLAG semantics,
// CIGAR algebra, headers and text round-trip. SAM records are the currency of
// the Cleaner stage (§2.1); GPF converts them directly into partitioned
// in-memory datasets without a column-wise reformat (§3.2).
package sam

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// FLAG bits per the SAM specification.
const (
	FlagPaired        = 0x1
	FlagProperPair    = 0x2
	FlagUnmapped      = 0x4
	FlagMateUnmapped  = 0x8
	FlagReverse       = 0x10
	FlagMateReverse   = 0x20
	FlagFirstOfPair   = 0x40
	FlagSecondOfPair  = 0x80
	FlagSecondary     = 0x100
	FlagQCFail        = 0x200
	FlagDuplicate     = 0x400
	FlagSupplementary = 0x800
)

// Record is one alignment line. RefID is the dense contig ID (-1 when
// unmapped); Pos is 0-based. Seq/Qual follow the FASTQ conventions.
type Record struct {
	Name    string
	Flag    uint16
	RefID   int32
	Pos     int32
	MapQ    uint8
	Cigar   Cigar
	MateRef int32
	MatePos int32
	TempLen int32
	Seq     []byte
	Qual    []byte
	// Tags carries optional fields we need: read group, library, etc.
	Tags map[string]string
}

// Paired reports whether the read was sequenced as part of a pair.
func (r *Record) Paired() bool { return r.Flag&FlagPaired != 0 }

// Unmapped reports whether the read failed to align.
func (r *Record) Unmapped() bool { return r.Flag&FlagUnmapped != 0 }

// Reverse reports whether the read aligned to the reverse strand.
func (r *Record) Reverse() bool { return r.Flag&FlagReverse != 0 }

// Duplicate reports whether the read is marked as a PCR/optical duplicate.
func (r *Record) Duplicate() bool { return r.Flag&FlagDuplicate != 0 }

// Secondary reports whether this is a secondary alignment.
func (r *Record) Secondary() bool { return r.Flag&FlagSecondary != 0 }

// FirstOfPair reports whether this is mate 1.
func (r *Record) FirstOfPair() bool { return r.Flag&FlagFirstOfPair != 0 }

// SetDuplicate sets or clears the duplicate flag.
func (r *Record) SetDuplicate(dup bool) {
	if dup {
		r.Flag |= FlagDuplicate
	} else {
		r.Flag &^= FlagDuplicate
	}
}

// End returns the 0-based exclusive reference end coordinate of the
// alignment (Pos + reference length consumed by the CIGAR).
func (r *Record) End() int32 {
	return r.Pos + int32(r.Cigar.RefLen())
}

// UnclippedStart returns the alignment start extended left over leading
// soft/hard clips — the coordinate MarkDuplicate keys on, so that clipping
// differences do not hide duplicates.
func (r *Record) UnclippedStart() int32 {
	pos := r.Pos
	for _, op := range r.Cigar {
		if op.Op == 'S' || op.Op == 'H' {
			pos -= int32(op.Len)
			continue
		}
		break
	}
	return pos
}

// UnclippedEnd returns the alignment end extended right over trailing clips.
func (r *Record) UnclippedEnd() int32 {
	end := r.End()
	for i := len(r.Cigar) - 1; i >= 0; i-- {
		op := r.Cigar[i]
		if op.Op == 'S' || op.Op == 'H' {
			end += int32(op.Len)
			continue
		}
		break
	}
	return end
}

// BaseQualitySum returns the sum of Phred scores >= 15, Picard's score for
// choosing the representative read among duplicates.
func (r *Record) BaseQualitySum() int {
	sum := 0
	for _, q := range r.Qual {
		phred := int(q) - 33
		if phred >= 15 {
			sum += phred
		}
	}
	return sum
}

// CigarOp is one CIGAR operation.
type CigarOp struct {
	Len int
	Op  byte // one of MIDNSHP=X
}

// Cigar is a sequence of operations describing how a read maps to the
// reference.
type Cigar []CigarOp

// consumesRef reports whether the op advances through reference bases.
func consumesRef(op byte) bool {
	switch op {
	case 'M', 'D', 'N', '=', 'X':
		return true
	}
	return false
}

// RefLen returns the number of reference bases consumed.
func (c Cigar) RefLen() int {
	n := 0
	for _, op := range c {
		if consumesRef(op.Op) {
			n += op.Len
		}
	}
	return n
}

// HasIndel reports whether the CIGAR contains an insertion or deletion — the
// trigger for indel-realignment candidate intervals.
func (c Cigar) HasIndel() bool {
	for _, op := range c {
		if op.Op == 'I' || op.Op == 'D' {
			return true
		}
	}
	return false
}

// String renders the CIGAR in SAM text form ("*" when empty).
func (c Cigar) String() string {
	return string(c.appendText(make([]byte, 0, 16)))
}

// appendText appends the CIGAR's SAM text form to b.
func (c Cigar) appendText(b []byte) []byte {
	if len(c) == 0 {
		return append(b, '*')
	}
	for _, op := range c {
		b = strconv.AppendInt(b, int64(op.Len), 10)
		b = append(b, op.Op)
	}
	return b
}

// maxCigarOpLen is the longest CIGAR op the SAM specification allows (BAM
// stores the length in 28 bits). The bound also keeps the count below from
// overflowing on a hostile digit run.
const maxCigarOpLen = 1<<28 - 1

// ParseCigar parses SAM text CIGAR ("*" yields nil).
func ParseCigar(s string) (Cigar, error) { return parseCigar(s) }

// parseCigar is ParseCigar over either text form, so that ReadText parses a
// CIGAR column where it lies in the scanner's buffer.
func parseCigar[T string | []byte](s T) (Cigar, error) {
	if len(s) == 0 || len(s) == 1 && s[0] == '*' {
		return nil, nil
	}
	var c Cigar
	n := 0
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if ch >= '0' && ch <= '9' {
			if n = n*10 + int(ch-'0'); n > maxCigarOpLen {
				return nil, fmt.Errorf("sam: CIGAR op longer than %d in %q", maxCigarOpLen, s)
			}
			continue
		}
		switch ch {
		case 'M', 'I', 'D', 'N', 'S', 'H', 'P', '=', 'X':
			if n == 0 {
				return nil, fmt.Errorf("sam: zero-length CIGAR op %c in %q", ch, s)
			}
			c = append(c, CigarOp{Len: n, Op: ch})
			n = 0
		default:
			return nil, fmt.Errorf("sam: bad CIGAR byte %q in %q", ch, s)
		}
	}
	if n != 0 {
		return nil, fmt.Errorf("sam: trailing count in CIGAR %q", s)
	}
	return c, nil
}

// Normalize merges adjacent same-op entries and drops zero-length ops,
// returning a canonical CIGAR.
func (c Cigar) Normalize() Cigar {
	var out Cigar
	for _, op := range c {
		if op.Len == 0 {
			continue
		}
		if len(out) > 0 && out[len(out)-1].Op == op.Op {
			out[len(out)-1].Len += op.Len
			continue
		}
		out = append(out, op)
	}
	return out
}

// SortOrder describes record ordering in a header.
type SortOrder string

// Sort orders recognized by the framework.
const (
	Unsorted   SortOrder = "unsorted"
	Coordinate SortOrder = "coordinate"
	QueryName  SortOrder = "queryname"
)

// Header carries the reference dictionary and sort order, the subset of the
// SAM header the pipeline needs (SamHeaderInfo in the paper's API, Fig 3).
type Header struct {
	Sort       SortOrder
	RefNames   []string
	RefLengths []int
	ReadGroups []string
}

// NewHeader builds a header from parallel name/length slices.
func NewHeader(sort SortOrder, names []string, lengths []int) (*Header, error) {
	if len(names) != len(lengths) {
		return nil, fmt.Errorf("sam: %d names but %d lengths", len(names), len(lengths))
	}
	return &Header{Sort: sort, RefNames: names, RefLengths: lengths}, nil
}

// Clone returns a deep copy with a possibly different sort order; Processes
// producing sorted output use this instead of mutating shared headers.
func (h *Header) Clone(sort SortOrder) *Header {
	return &Header{
		Sort:       sort,
		RefNames:   append([]string(nil), h.RefNames...),
		RefLengths: append([]int(nil), h.RefLengths...),
		ReadGroups: append([]string(nil), h.ReadGroups...),
	}
}

// CoordinateCompare orders records by (RefID, Pos, strand, name), unmapped
// reads (-1 contig) last, matching samtools sort: negative when a sorts
// before b, positive when after, zero when the order leaves them tied.
func CoordinateCompare(a, b *Record) int {
	ar, br := a.RefID, b.RefID
	if ar < 0 {
		ar = 1 << 30
	}
	if br < 0 {
		br = 1 << 30
	}
	if ar != br {
		return cmp.Compare(ar, br)
	}
	if a.Pos != b.Pos {
		return cmp.Compare(a.Pos, b.Pos)
	}
	if a.Reverse() != b.Reverse() {
		if b.Reverse() {
			return -1
		}
		return 1
	}
	return strings.Compare(a.Name, b.Name)
}
