package align

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/gpf-go/gpf/internal/genome"
)

// Alphabet for the FM-index: 0 is the sentinel, 1..4 are A,C,G,T.
const (
	sentinel   = 0
	numSymbols = 5
	// occCheckpoint is the number of BWT symbols per occBlock; a rank query
	// counts at most occCheckpoint-1 symbols past the block's checkpoint.
	occCheckpoint = 64
	// saSampleRate is the suffix-array sampling stride for locate queries.
	saSampleRate = 4
)

// occBlock is 64 BWT symbols in bwa's interleaved layout: the occurrence
// counts of A,C,G,T before the block and the symbols themselves as 2-bit
// codes (symbol k in bits[k/32] at bit 2*(k%32)), 32 bytes together, so a
// rank query touches one block and nothing else.
type occBlock struct {
	occ  [4]uint32
	bits [2]uint64
}

// eq returns, per word, a mask with the low bit of every 2-bit symbol that
// equals code set.
func (b *occBlock) eq(code uint64) (e0, e1 uint64) {
	const low = 0x5555555555555555
	pat := (code ^ 3) * low // XOR against this turns a matching symbol into 11
	y0, y1 := b.bits[0]^pat, b.bits[1]^pat
	return y0 & (y0 >> 1) & low, y1 & (y1 >> 1) & low
}

// countEq counts the set symbols of an eq mask pair among the first r < 64
// symbols of the block.
func countEq(e0, e1 uint64, r uint) int32 {
	if r < 32 {
		return int32(bits.OnesCount64(e0 & (1<<(2*r) - 1)))
	}
	return int32(bits.OnesCount64(e0) + bits.OnesCount64(e1&(1<<(2*(r-32))-1)))
}

// FMIndex is a BWT-based full-text index over the concatenated reference,
// supporting backward search (exact-match intervals) and locate.
type FMIndex struct {
	ref *genome.Reference

	// blocks holds the BWT without its sentinel symbol, which sits in row
	// primary: BWT row i is packed symbol i below primary and i-1 above it.
	// There is always a block at index (n-1)/occCheckpoint, so rank(c, n)
	// finds its checkpoint even when n-1 is an exact multiple of the stride.
	blocks  []occBlock
	primary int32
	// counts[c] = number of symbols < c in the text (the C array).
	counts [numSymbols + 1]int32
	// sa holds sampled suffix array entries: saSample[i] = SA[i*saSampleRate].
	saSample []int32
	n        int // text length including sentinel

	// contig boundary offsets in the concatenated text: contig i spans
	// [starts[i], starts[i]+len).
	starts []int64
}

// code converts a base to the index alphabet, mapping non-ACGT to 'A'
// (index-side normalization; alignment scoring against the true reference
// still penalizes such positions).
func code(b byte) byte {
	c := genome.BaseCode(b)
	if c < 0 {
		c = 0
	}
	return byte(c + 1)
}

// codedText concatenates the contigs in the index alphabet, sentinel last,
// and returns each contig's offset in that text.
func codedText(ref *genome.Reference) (text []byte, starts []int64) {
	text = make([]byte, ref.TotalLen()+1)
	starts = make([]int64, ref.NumContigs())
	var off int64
	for i := range ref.Contigs {
		starts[i] = off
		for _, b := range ref.Contigs[i].Seq {
			text[off] = code(b)
			off++
		}
	}
	text[off] = sentinel
	return text, starts
}

// maxTextLen is the longest text, sentinel included, whose positions the
// index's int32 suffix array, samples and counts can hold.
const maxTextLen = math.MaxInt32

// checkTextLen refuses a text of n positions the index cannot address.
func checkTextLen(n int64) error {
	if n > maxTextLen {
		return fmt.Errorf("align: reference of %d bases exceeds the index's limit of %d bases (int32 positions)", n-1, maxTextLen-1)
	}
	return nil
}

// BuildFMIndex indexes the reference genome (forward strand; reads are
// searched in both orientations by the aligner).
func BuildFMIndex(ref *genome.Reference) (*FMIndex, error) {
	if ref.TotalLen() == 0 {
		return nil, fmt.Errorf("align: empty reference")
	}
	if err := checkTextLen(ref.TotalLen() + 1); err != nil {
		return nil, err
	}
	text, starts := codedText(ref)
	return indexFromSA(ref, text, starts, buildSuffixArray(text)), nil
}

// indexFromSA builds the index of the coded text from its suffix array.
func indexFromSA(ref *genome.Reference, text []byte, starts []int64, sa []int32) *FMIndex {
	n := len(text)
	idx := &FMIndex{ref: ref, n: n, starts: starts}

	// Packed BWT with its checkpoints, and the sampled SA. The full SA is
	// dropped afterwards; locate walks LF to a sampled row.
	idx.blocks = make([]occBlock, (n-1)/occCheckpoint+1)
	idx.saSample = make([]int32, (n+saSampleRate-1)/saSampleRate)
	var running [4]uint32
	k := 0 // packed symbols written
	for i, p := range sa {
		if i%saSampleRate == 0 {
			idx.saSample[i/saSampleRate] = p
		}
		if p == 0 {
			idx.primary = int32(i)
			continue
		}
		if k%occCheckpoint == 0 {
			idx.blocks[k/occCheckpoint].occ = running
		}
		c := text[p-1] - 1
		idx.blocks[k/occCheckpoint].bits[k/32&1] |= uint64(c) << (2 * (k & 31))
		running[c]++
		k++
	}
	if k%occCheckpoint == 0 {
		idx.blocks[k/occCheckpoint].occ = running
	}

	// C array: the sentinel sorts first, then the four bases.
	idx.counts[1] = 1
	for c, f := range running {
		idx.counts[c+2] = idx.counts[c+1] + int32(f)
	}
	return idx
}

// packed converts BWT row i (0..n) to an offset into the sentinel-free
// packed BWT.
func (x *FMIndex) packed(i int32) uint {
	if i > x.primary {
		i--
	}
	return uint(i)
}

// rank returns the number of occurrences of base code c (0..3 for A,C,G,T)
// in bwt[:lo] and in bwt[:hi], lo <= hi: per row one block load, an XOR mask
// and a popcount, and both rows from one load and one mask when they share a
// block — which the two ends of a backward-search interval soon do.
func (x *FMIndex) rank(c uint64, lo, hi int32) (int32, int32) {
	klo, khi := x.packed(lo), x.packed(hi)
	b := &x.blocks[klo/occCheckpoint]
	e0, e1 := b.eq(c)
	rlo := int32(b.occ[c]) + countEq(e0, e1, klo%occCheckpoint)
	if khi/occCheckpoint != klo/occCheckpoint {
		b = &x.blocks[khi/occCheckpoint]
		e0, e1 = b.eq(c)
	}
	return rlo, int32(b.occ[c]) + countEq(e0, e1, khi%occCheckpoint)
}

// lf is the last-to-first mapping of BWT row i.
func (x *FMIndex) lf(i int32) int32 {
	if i == x.primary {
		return 0 // the sentinel row maps to the suffix that is the sentinel alone
	}
	k := x.packed(i)
	c := x.blocks[k/occCheckpoint].bits[k/32&1] >> (2 * (k & 31)) & 3
	r, _ := x.rank(c, i, i)
	return x.counts[c+1] + r
}

// Interval is a BWT row range [Lo, Hi) matching some query suffix.
type Interval struct {
	Lo, Hi int32
}

// Size returns the number of matches in the interval.
func (iv Interval) Size() int { return int(iv.Hi - iv.Lo) }

// BackwardSearch returns the BWT interval of exact occurrences of pattern
// (ACGT bytes). An empty interval means no match.
func (x *FMIndex) BackwardSearch(pattern []byte) Interval {
	lo, hi := int32(0), int32(x.n)
	for i := len(pattern) - 1; i >= 0; i-- {
		bc := genome.BaseCode(pattern[i])
		if bc < 0 {
			return Interval{}
		}
		lo, hi = x.rank(uint64(bc), lo, hi)
		if lo >= hi {
			return Interval{}
		}
		lo += x.counts[bc+1]
		hi += x.counts[bc+1]
	}
	return Interval{Lo: lo, Hi: hi}
}

// appendLocate resolves up to maxHits text positions for an interval by
// LF-walking to sampled suffix-array rows, appending them to dst.
func (x *FMIndex) appendLocate(dst []int64, iv Interval, maxHits int) []int64 {
	for r := iv.Lo; r < iv.Hi && maxHits > 0; r, maxHits = r+1, maxHits-1 {
		row := r
		steps := int32(0)
		for row%saSampleRate != 0 {
			row = x.lf(row)
			steps++
		}
		pos := int64(x.saSample[row/saSampleRate]) + int64(steps)
		if pos >= int64(x.n) {
			pos -= int64(x.n)
		}
		dst = append(dst, pos)
	}
	return dst
}

// Resolve converts a concatenated-text offset into (contig, position). The
// second result is false for offsets past the last contig (the sentinel).
func (x *FMIndex) Resolve(off int64) (genome.Position, bool) {
	if off >= int64(x.n-1) || off < 0 {
		return genome.Position{}, false
	}
	// Binary search over starts.
	lo, hi := 0, len(x.starts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if x.starts[mid] <= off {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	c := lo
	pos := int(off - x.starts[c])
	if pos >= x.ref.Contigs[c].Len() {
		return genome.Position{}, false
	}
	return genome.Position{Contig: c, Pos: pos}, true
}
