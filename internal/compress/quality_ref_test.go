package compress

import (
	"fmt"
	"sort"
)

// The symbol-at-a-time quality decoder, its canonical Huffman decoder and bit
// reader: the oracle checkDecodeEquivalence holds DecodeQualBlock to. It is
// test code because the word-wide decoder reports its own errors, so the
// program never falls back to it.

// decodeQualBlockRef is the symbol-at-a-time decoder. Symbols are decoded
// straight into the output quality strings.
func decodeQualBlockRef(data []byte, lengths []int) ([][]byte, error) {
	if len(data) < qualAlphabet {
		return nil, fmt.Errorf("compress: quality block shorter than code table")
	}
	lens := make([]uint8, qualAlphabet)
	copy(lens, data[:qualAlphabet])
	if err := validateCodeLens(lens); err != nil {
		return nil, err
	}
	d := newHuffDecoder(lens)
	r := &bitReader{buf: data[qualAlphabet:]}
	out := make([][]byte, len(lengths))
	for i, n := range lengths {
		q := make([]byte, n)
		prev := 0
		for j := 0; j < n; j++ {
			sym, err := d.decodeSymbol(r)
			if err != nil {
				return nil, err
			}
			if sym == qualEOFSymbol {
				return nil, fmt.Errorf("compress: quality stream short: record %d needs %d more symbols", i, n-j)
			}
			v := prev + (sym - deltaBias)
			if v < 0 || v > maxQualByte {
				return nil, fmt.Errorf("compress: quality value %d out of range", v)
			}
			q[j] = byte(v)
			prev = v
		}
		out[i] = q
	}
	sym, err := d.decodeSymbol(r)
	if err != nil {
		return nil, err
	}
	if sym != qualEOFSymbol {
		return nil, fmt.Errorf("compress: trailing quality symbols after records")
	}
	if extra := (r.nAcc + 8*uint(len(r.buf)-r.pos)) / 8; extra > 0 {
		return nil, fmt.Errorf("compress: %d trailing bytes after EOF", extra)
	}
	return out, nil
}

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

// peekBits sizes the reference decoder's table: codes of up to peekBits bits
// decode with one table lookup.
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

// bitReader consumes bits MSB-first from a byte slice through a 64-bit
// accumulator.
type bitReader struct {
	buf  []byte
	pos  int    // next byte index
	acc  uint64 // bits buffered, MSB-aligned to bit nAcc-1
	nAcc uint
}

// fill tops up the accumulator to at least want bits when input remains.
func (r *bitReader) fill(want uint) {
	for r.nAcc < want && r.pos < len(r.buf) {
		r.acc = r.acc<<8 | uint64(r.buf[r.pos])
		r.pos++
		r.nAcc += 8
	}
}

// readBit returns the next bit; ok is false when input is exhausted.
func (r *bitReader) readBit() (bit byte, ok bool) {
	if r.nAcc == 0 {
		r.fill(1)
		if r.nAcc == 0 {
			return 0, false
		}
	}
	r.nAcc--
	return byte(r.acc>>r.nAcc) & 1, true
}

// readBits reads n bits MSB-first (n <= 32).
func (r *bitReader) readBits(n uint) (uint32, bool) {
	r.fill(n)
	if r.nAcc < n {
		return 0, false
	}
	r.nAcc -= n
	return uint32(r.acc>>r.nAcc) & ((1 << n) - 1), true
}

// peek returns the next n bits without consuming them, zero-padding past
// end of input; avail reports how many real bits back the peek.
func (r *bitReader) peek(n uint) (bits uint32, avail uint) {
	r.fill(n)
	avail = r.nAcc
	if avail >= n {
		return uint32(r.acc>>(r.nAcc-n)) & ((1 << n) - 1), n
	}
	// Pad with zeros on the right.
	return uint32(r.acc<<(n-r.nAcc)) & ((1 << n) - 1), avail
}

// skip consumes n buffered bits (n must not exceed the buffered count).
func (r *bitReader) skip(n uint) {
	r.nAcc -= n
}
