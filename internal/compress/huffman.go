package compress

import (
	"errors"
	"fmt"
	"sort"
)

// Huffman coding over a small symbol alphabet with an explicit EOF symbol,
// as used by the quality-score codec (Fig 6 of the paper ends the delta
// stream with an EOF codeword). The code is canonical so that only the code
// lengths need to be stored alongside the payload.

// maxCodeLen bounds codeword length: codewords live in uint32, the bit
// writers shift them into a 64-bit accumulator and the decoder indexes
// per-length arrays of this size. The quality alphabet has 256 symbols, so a
// Huffman tree over it can be up to 255 deep — Fibonacci-like frequencies
// reach 32 at about nine million symbols — and buildCodeLengthsFast refuses
// such a histogram with errCodeTooLong rather than emit a table
// validateCodeLens rejects.
const maxCodeLen = 31

// errCodeTooLong reports a frequency histogram whose Huffman tree is deeper
// than maxCodeLen.
var errCodeTooLong = errors.New("compress: Huffman code length exceeds max")

// huffCode is one symbol's canonical codeword.
type huffCode struct {
	bits uint32
	len  uint8
}

// canonicalCodes assigns canonical codewords from code lengths: symbols
// sorted by (length, symbol) receive consecutive codes.
func canonicalCodes(lens []uint8) []huffCode {
	type symLen struct {
		sym int
		l   uint8
	}
	var order []symLen
	for sym, l := range lens {
		if l > 0 {
			order = append(order, symLen{sym, l})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].l != order[j].l {
			return order[i].l < order[j].l
		}
		return order[i].sym < order[j].sym
	})
	codes := make([]huffCode, len(lens))
	var code uint32
	var prevLen uint8
	for _, sl := range order {
		code <<= (sl.l - prevLen)
		codes[sl.sym] = huffCode{bits: code, len: sl.l}
		code++
		prevLen = sl.l
	}
	return codes
}

// peekBits sizes the fast decode table: codes of up to peekBits bits decode
// with one table lookup.
const peekBits = 10

// huffDecoder decodes canonical codes with the standard first-code/offset
// arrays plus a peek table for short codes: O(1) per symbol on the fast
// path.
type huffDecoder struct {
	// firstCode[l] is the smallest codeword of length l; count[l] how many
	// codes have length l; offset[l] indexes into symbols for length l.
	firstCode [maxCodeLen + 2]uint32
	count     [maxCodeLen + 2]uint32
	offset    [maxCodeLen + 2]uint32
	symbols   []int // symbols ordered by (length, symbol)
	max       uint8
	// table maps a peekBits-bit prefix to sym<<8|len for codes with
	// len <= peekBits; 0 means slow path.
	table [1 << peekBits]uint32
}

// validateCodeLens rejects code-length tables that cannot come from a
// canonical Huffman code: lengths over maxCodeLen (they would index past the
// decoder's per-length arrays) and overfull trees violating the Kraft
// inequality (their canonical codes overflow and corrupt the peek table).
// Decode paths handed untrusted blocks must call this before newHuffDecoder.
func validateCodeLens(lens []uint8) error {
	var kraft uint64
	for sym, l := range lens {
		if l == 0 {
			continue
		}
		if l > maxCodeLen {
			return fmt.Errorf("compress: symbol %d code length %d exceeds max %d", sym, l, maxCodeLen)
		}
		kraft += 1 << (maxCodeLen - l)
	}
	if kraft > 1<<maxCodeLen {
		return fmt.Errorf("compress: overfull Huffman code (Kraft sum %d/2^%d)", kraft, maxCodeLen)
	}
	return nil
}

func newHuffDecoder(lens []uint8) *huffDecoder {
	d := &huffDecoder{}
	for _, l := range lens {
		if l > 0 {
			d.count[l]++
			if l > d.max {
				d.max = l
			}
		}
	}
	// Canonical first codes per length and symbol table offsets.
	var code uint32
	var total uint32
	for l := uint8(1); l <= d.max; l++ {
		code <<= 1
		d.firstCode[l] = code
		d.offset[l] = total
		code += d.count[l]
		total += d.count[l]
	}
	d.symbols = make([]int, total)
	var fill [maxCodeLen + 2]uint32
	for sym, l := range lens {
		if l > 0 {
			d.symbols[d.offset[l]+fill[l]] = sym
			fill[l]++
		}
	}
	// Peek table: for every short code, fill all table slots sharing its
	// prefix with sym<<8|len (len byte nonzero marks a valid entry).
	codes := canonicalCodes(lens)
	for sym, c := range codes {
		if c.len == 0 || c.len > peekBits {
			continue
		}
		shift := peekBits - uint(c.len)
		base := c.bits << shift
		entry := uint32(sym)<<8 | uint32(c.len)
		for i := uint32(0); i < 1<<shift; i++ {
			d.table[base|i] = entry
		}
	}
	return d
}

// decodeSymbol reads one symbol from r.
func (d *huffDecoder) decodeSymbol(r *bitReader) (int, error) {
	// Fast path: table lookup on a peekBits prefix.
	prefix, avail := r.peek(peekBits)
	if entry := d.table[prefix]; entry != 0 {
		l := uint(entry & 0xFF)
		if l <= avail {
			r.skip(l)
			return int(entry >> 8), nil
		}
	}
	// Slow path: walk code lengths bit by bit.
	var code uint32
	for l := uint8(1); l <= d.max; l++ {
		b, ok := r.readBit()
		if !ok {
			return 0, fmt.Errorf("compress: truncated Huffman stream")
		}
		code = code<<1 | uint32(b)
		if idx := code - d.firstCode[l]; code >= d.firstCode[l] && idx < d.count[l] {
			return d.symbols[d.offset[l]+idx], nil
		}
	}
	return 0, fmt.Errorf("compress: invalid Huffman code")
}
