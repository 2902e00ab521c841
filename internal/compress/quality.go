package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// The quality codec implements Figs 5-6 of the paper: quality strings are
// converted to the sequence of differences between adjacent scores (the
// "Delta sequence", character range -127..127) — which is far more
// concentrated than the scores themselves — and the delta stream is Huffman
// coded with a terminating EOF symbol. The code is canonical, so only the
// code lengths are stored alongside the payload.
//
// The coder is word-wide: it writes the bytes of the reference coder
// (encodeQualBlockRef and its pointer-node tree builder) and its decoder
// accepts exactly the blocks the symbol-at-a-time reference decoder does —
// both are oracles in the package's _test.go files — without a heap
// allocation per block beyond the output itself. The P×P shuffle cuts
// partitions into blocks of a few dozen records, so the per-block fixed
// costs — tree build, canonical codes, decode tables — are array code on the
// stack, and the per-symbol loops move whole words.
//
// Exactness, piece by piece:
//   - code lengths: buildCodeLengthsFast runs container/heap's sift-up and
//     sift-down over index arrays with the reference's (weight, symbol)
//     order, so every tie — two internal nodes of equal weight included —
//     resolves as it does there;
//   - codewords: canonical numbering by counting sort on length is the
//     reference's sort by (length, symbol) followed by consecutive codes;
//   - bit order: MSB-first into a 64-bit accumulator flushed 32 bits at a
//     time, zero padded at the end, like the reference's bitWriter;
//   - decode: a symbol is whatever codeword prefixes the remaining bits, so
//     the table walk, the canonical walk and the reference's bit-by-bit walk
//     agree, and DecodeQualBlock fails exactly where the reference does,
//     naming the cause itself.

// Quality symbols: raw quality bytes are 0..126. The first value of each
// string is delta-coded against 0, so deltas span -126..+126; symbol =
// delta + deltaBias. EOF takes the top symbol.
const (
	deltaBias     = 127
	qualAlphabet  = 256
	qualEOFSymbol = 255
	maxQualByte   = 126
)

// ErrQualUncodable reports a batch the delta-Huffman coder cannot represent:
// a quality byte above 126 (its delta would collide with the EOF symbol or
// leave the alphabet), or a delta histogram so skewed that its Huffman tree
// is deeper than the 31-bit codeword bound. AppendQualColumn stores such a
// batch raw.
var ErrQualUncodable = errors.New("compress: quality block not codable as delta-Huffman")

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

// validateCodeLens rejects code-length tables that cannot come from a
// canonical Huffman code: lengths over maxCodeLen (they would index past the
// decoder's per-length arrays) and overfull trees violating the Kraft
// inequality (their canonical codes overflow and corrupt the decode table).
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

// Qual column modes.
const (
	qualModeHuffman = 0
	qualModeRaw     = 1
)

// AppendQualColumn appends the qual column of n quality strings, qual(i)
// returning the i-th, to dst. Layout: mode byte (0 delta-Huffman via
// EncodeQualBlock; 1 raw, for a batch the coder reports ErrQualUncodable on:
// a byte above 126 or a code deeper than 31 bits); per-record uvarint
// lengths; payload.
func AppendQualColumn(dst []byte, n int, qual func(i int) []byte) ([]byte, error) {
	quals := make([][]byte, n)
	total := 0
	for i := range quals {
		quals[i] = qual(i)
		total += len(quals[i])
	}
	mode := byte(qualModeHuffman)
	block, err := EncodeQualBlock(quals)
	if errors.Is(err, ErrQualUncodable) {
		mode = qualModeRaw
	} else if err != nil {
		return nil, err
	}
	payload := len(block)
	if mode == qualModeRaw {
		payload = total
	}
	dst = slices.Grow(dst, 1+3*n+payload)
	dst = append(dst, mode)
	for _, q := range quals {
		dst = binary.AppendUvarint(dst, uint64(len(q)))
	}
	if mode == qualModeRaw {
		for _, q := range quals {
			dst = append(dst, q...)
		}
		return dst, nil
	}
	return append(dst, block...), nil
}

// DecodeQualColumn inverts AppendQualColumn: col must hold exactly one column
// of n quality strings. set receives each non-empty string, a disjoint region
// of one slab with capacity clipped to length; empty strings are not handed
// over.
func DecodeQualColumn(col []byte, n int, set func(i int, q []byte)) error {
	if len(col) == 0 {
		return fmt.Errorf("compress: missing qual mode byte")
	}
	mode := col[0]
	lens, total, payload, err := ReadLengths(col[1:], n, 8*len(col))
	if err != nil {
		return err
	}
	switch mode {
	case qualModeRaw:
		if len(payload) != total {
			return fmt.Errorf("compress: raw qual bytes: have %d, lengths sum to %d", len(payload), total)
		}
		slab := make([]byte, total)
		copy(slab, payload)
		pos := 0
		for i, l := range lens {
			if l > 0 {
				set(i, slab[pos:pos+l:pos+l])
			}
			pos += l
		}
		return nil
	case qualModeHuffman:
		quals, err := DecodeQualBlock(payload, lens)
		if err != nil {
			return err
		}
		for i, q := range quals {
			if len(q) > 0 {
				set(i, q)
			}
		}
		return nil
	}
	return fmt.Errorf("compress: unknown qual mode %d", mode)
}

// lenHeap is container/heap's binary heap over packed keys: weight<<9 in the
// high bits, symbol+1 in the low nine (0 for internal nodes, which therefore
// sort before a leaf of equal weight and tie with each other, as in the
// reference's huffHeap.Less). Weights are symbol counts of one block, far
// below 2^55.
type lenHeap struct {
	key [qualAlphabet]uint64
	id  [qualAlphabet]uint16 // node id: leaves are their symbol, internal nodes follow
	n   int
}

func (h *lenHeap) swap(i, j int) {
	h.key[i], h.key[j] = h.key[j], h.key[i]
	h.id[i], h.id[j] = h.id[j], h.id[i]
}

// push is heap.Push: append, then sift up.
func (h *lenHeap) push(key uint64, id uint16) {
	j := h.n
	h.key[j], h.id[j] = key, id
	h.n++
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h.key[j] < h.key[i]) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

// pop is heap.Pop: swap the root to the end, sift the new root down over the
// shortened heap, remove the end.
func (h *lenHeap) pop() (uint64, uint16) {
	n := h.n - 1
	h.swap(0, n)
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.key[j2] < h.key[j1] {
			j = j2 // right child
		}
		if !(h.key[j] < h.key[i]) {
			break
		}
		h.swap(i, j)
		i = j
	}
	h.n = n
	return h.key[n], h.id[n]
}

// buildCodeLengthsFast returns the canonical code length per symbol given
// frequencies (0-frequency symbols get length 0 = absent); at least one
// symbol must have nonzero frequency. It is the reference builder
// buildCodeLengths (quality_kernel_test.go) without pointer nodes: the same
// heap operations in the same order, then depths read off a parent array
// (a parent is always created after its children, so one descending pass
// over the internal nodes assigns every depth).
func buildCodeLengthsFast(freqs *[qualAlphabet]int64, lens *[qualAlphabet]uint8) error {
	var h lenHeap
	for sym, f := range freqs {
		if f > 0 {
			h.push(uint64(f)<<9|uint64(sym+1), uint16(sym))
		}
	}
	*lens = [qualAlphabet]uint8{}
	switch h.n {
	case 0:
		return fmt.Errorf("compress: no symbols to code")
	case 1:
		lens[h.id[0]] = 1
		return nil
	}
	var parent [2*qualAlphabet - 1]uint16
	next := uint16(qualAlphabet)
	for h.n > 1 {
		ka, a := h.pop()
		kb, b := h.pop()
		parent[a], parent[b] = next, next
		h.push((ka>>9+kb>>9)<<9, next)
		next++
	}
	root := next - 1
	var depth [qualAlphabet]uint8 // of internal node id-qualAlphabet; the root's is 0
	for id := root - 1; id >= qualAlphabet; id-- {
		depth[id-qualAlphabet] = depth[parent[id]-qualAlphabet] + 1
	}
	for sym, f := range freqs {
		if f > 0 {
			l := depth[parent[sym]-qualAlphabet] + 1
			if l > maxCodeLen {
				return errCodeTooLong
			}
			lens[sym] = l
		}
	}
	return nil
}

// canonicalFirst returns, per code length, how many symbols have it and the
// first canonical codeword of that length (the reference's running code
// shifted left across each length gap).
func canonicalFirst(lens *[qualAlphabet]uint8) (count, first [maxCodeLen + 2]uint32, max uint) {
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	var code uint32
	for l := uint(1); l <= maxCodeLen; l++ {
		code <<= 1
		first[l] = code
		code += count[l]
		if count[l] > 0 {
			max = l
		}
	}
	return count, first, max
}

// EncodeQualBlock compresses a batch of quality strings: a 256-entry
// code-length table (one byte per symbol) followed by the Huffman payload
// ending in EOF. Lengths are carried externally by the block framing. It is
// encodeQualBlockRef (the oracle in quality_kernel_test.go) with interleaved
// histograms, an exactly sized output and 4-byte stores.
func EncodeQualBlock(quals [][]byte) ([]byte, error) {
	// Pass 1: delta-symbol frequencies into four tables by position mod 4.
	// Runs of equal deltas are the common case, and one table would chain
	// every increment through a store-to-load forward of the same counter.
	// Symbols are computed in uint8: valid bytes (<= 126) never wrap, and a
	// wrapped index is harmless because out-of-range input is rejected below.
	var h0, h1, h2, h3 [qualAlphabet]int64
	var over uint64 // bit 7 of some byte set iff a quality byte is > 126
	for _, q := range quals {
		prev := byte(0)
		i := 0
		for ; i+8 <= len(q); i += 8 {
			w := binary.LittleEndian.Uint64(q[i:])
			// b|(b+1) has bit 7 set exactly for b in 127..255; a carry out
			// of a byte needs b = 255, which has already set its own bit.
			over |= w | (w + 0x0101010101010101)
			// Each byte minus the one before it, prev before the first.
			d := w<<8 | uint64(prev)
			h0[byte(w)-byte(d)+deltaBias]++
			h1[byte(w>>8)-byte(d>>8)+deltaBias]++
			h2[byte(w>>16)-byte(d>>16)+deltaBias]++
			h3[byte(w>>24)-byte(d>>24)+deltaBias]++
			h0[byte(w>>32)-byte(d>>32)+deltaBias]++
			h1[byte(w>>40)-byte(d>>40)+deltaBias]++
			h2[byte(w>>48)-byte(d>>48)+deltaBias]++
			h3[byte(w>>56)-byte(d>>56)+deltaBias]++
			prev = byte(w >> 56)
		}
		for ; i < len(q); i++ {
			b := q[i]
			over |= uint64(b | (b + 1))
			h0[b-prev+deltaBias]++
			prev = b
		}
	}
	if over&0x8080808080808080 != 0 {
		return nil, fmt.Errorf("%w: quality byte above %d", ErrQualUncodable, maxQualByte)
	}
	var freqs [qualAlphabet]int64
	for s := range freqs {
		freqs[s] = h0[s] + h1[s] + h2[s] + h3[s]
	}
	freqs[qualEOFSymbol]++

	var lens [qualAlphabet]uint8
	if err := buildCodeLengthsFast(&freqs, &lens); err != nil {
		if err == errCodeTooLong {
			return nil, fmt.Errorf("%w: %v", ErrQualUncodable, err)
		}
		return nil, err
	}
	// Canonical codes packed code<<8|len, and the exact payload size.
	_, nextCode, maxLen := canonicalFirst(&lens)
	var enc [qualAlphabet]uint64
	var payloadBits uint64
	for sym, l := range lens {
		if l > 0 {
			enc[sym] = uint64(nextCode[l])<<8 | uint64(l)
			nextCode[l]++
			payloadBits += uint64(freqs[sym]) * uint64(l)
		}
	}
	out := make([]byte, qualAlphabet+int((payloadBits+7)/8))
	copy(out, lens[:])

	// Pass 2: emit. Fewer than 32 bits are pending when a codeword (at most
	// 31 bits) or, when no codeword is over 16 bits, two of them joined off
	// the accumulator's dependency chain are added: never more than 63.
	p := out[qualAlphabet:]
	var acc uint64
	var nAcc uint
	o := 0
	for _, q := range quals {
		prev := byte(0)
		i := 0
		if maxLen <= 16 {
			for ; i+2 <= len(q); i += 2 {
				b0, b1 := q[i], q[i+1]
				e0, e1 := enc[b0-prev+deltaBias], enc[b1-b0+deltaBias]
				prev = b1
				l1 := uint(e1 & 0xff)
				l := uint(e0&0xff) + l1
				acc = acc<<l | e0>>8<<l1 | e1>>8
				nAcc += l
				if nAcc >= 32 {
					nAcc -= 32
					binary.BigEndian.PutUint32(p[o:], uint32(acc>>nAcc))
					o += 4
				}
			}
		}
		for ; i < len(q); i++ {
			e := enc[q[i]-prev+deltaBias]
			prev = q[i]
			l := uint(e & 0xff)
			acc = acc<<l | e>>8
			nAcc += l
			if nAcc >= 32 {
				nAcc -= 32
				binary.BigEndian.PutUint32(p[o:], uint32(acc>>nAcc))
				o += 4
			}
		}
	}
	e := enc[qualEOFSymbol]
	acc = acc<<(e&0xff) | e>>8
	nAcc += uint(e & 0xff)
	for nAcc >= 8 {
		nAcc -= 8
		p[o] = byte(acc >> nAcc)
		o++
	}
	if nAcc > 0 {
		p[o] = byte(acc << (8 - nAcc)) // zero padded, as bitWriter.finish
	}
	return out, nil
}

// qualPairBits is the width of the decode table's window: 4 KB of entries,
// filled in about a microsecond, which a block of a few hundred symbols
// already repays (a 12-bit window measured no faster on 200 000 symbols and
// slower on 6 000).
const qualPairBits = 10

// qualDecoder holds the canonical decode tables of one block, all on the
// caller's stack.
type qualDecoder struct {
	first  [maxCodeLen + 2]uint32 // smallest codeword of each length
	count  [maxCodeLen + 2]uint32 // codewords of each length
	offset [maxCodeLen + 2]uint32 // index into syms of each length's first symbol
	syms   [qualAlphabet]uint8    // symbols ordered by (length, symbol)
	max    uint
	// pair maps a qualPairBits-wide window to the one or two whole codewords
	// that start it: (len1+len2) | len1<<4 | symbols<<8 | sym1<<16 | sym2<<24
	// (the bits to consume lowest: they sit on the loop's dependency chain),
	// or 0 when the first codeword is longer than the window or the window
	// starts no codeword.
	pair [1 << qualPairBits]uint32
}

// init builds the canonical arrays by counting sort on length and fills the
// pair table in one sweep over (first, second) codeword pairs in canonical
// order: left-aligned canonical codewords tile the window space contiguously
// in that order, so the sweep writes the table front to back. lens must have
// passed validateCodeLens (Kraft sum at most 1 keeps every write in range).
func (d *qualDecoder) init(lens *[qualAlphabet]uint8) {
	var next [maxCodeLen + 2]uint32
	d.count, d.first, d.max = canonicalFirst(lens)
	var total uint32
	for l := uint(1); l <= d.max; l++ {
		d.offset[l] = total
		next[l] = total
		total += d.count[l]
	}
	for sym, l := range lens {
		if l > 0 {
			d.syms[next[l]] = uint8(sym)
			next[l]++
		}
	}
	tbl := &d.pair
	for l1 := uint(1); l1 <= min(qualPairBits, d.max); l1++ {
		rem := qualPairBits - l1
		for i1 := uint32(0); i1 < d.count[l1]; i1++ {
			s1 := uint32(d.syms[d.offset[l1]+i1])
			at := (d.first[l1] + i1) << rem
			end := at + 1<<rem
			for l2 := uint(1); l2 <= min(rem, d.max); l2++ {
				span := uint32(1) << (rem - l2)
				for i2 := uint32(0); i2 < d.count[l2]; i2++ {
					e := uint32(l1+l2) | uint32(l1)<<4 | 2<<8 | s1<<16 | uint32(d.syms[d.offset[l2]+i2])<<24
					for k := at; k < at+span; k++ {
						tbl[k] = e
					}
					at += span
				}
			}
			// No whole second codeword fits behind these prefixes.
			e := uint32(l1) | uint32(l1)<<4 | 1<<8 | s1<<16
			for k := at; k < end; k++ {
				tbl[k] = e
			}
		}
	}
}

// qualBits is the MSB-first bit cursor of the decoder: the next bit is bit 63
// of buf, cnt bits of buf are accounted for, bits below them are zero.
type qualBits struct {
	p   []byte
	pos int
	buf uint64
	cnt uint
}

// next decodes one symbol with exact end-of-input accounting: ok is false on
// a truncated stream or a bit pattern that is no codeword (streamErr tells
// which).
func (d *qualDecoder) next(r *qualBits) (sym byte, ok bool) {
	for r.cnt < 56 && r.pos < len(r.p) {
		r.buf |= uint64(r.p[r.pos]) << (56 - r.cnt)
		r.pos++
		r.cnt += 8
	}
	if e := d.pair[r.buf>>(64-qualPairBits)]; e != 0 {
		// The window is zero padded past the input: the codeword counts only
		// if all of it is real.
		if l := uint(e >> 4 & 0xf); l <= r.cnt {
			r.buf <<= l
			r.cnt -= l
			return byte(e >> 16), true
		}
	}
	for l := uint(1); l <= d.max && l <= r.cnt; l++ {
		code := uint32(r.buf >> (64 - l))
		if idx := code - d.first[l]; code >= d.first[l] && idx < d.count[l] {
			r.buf <<= l
			r.cnt -= l
			return d.syms[d.offset[l]+idx], true
		}
	}
	return 0, false
}

// streamErr names why the stream failed at r after decoding the first n
// symbols of slab (all of them when it was reading the EOF): an EOF among
// them ended the stream early; decoded, a symbol where the EOF belongs means
// the stream runs late; otherwise next failed because the input ran out
// inside a codeword (next tries every length the remaining bits allow, and
// refills to at least 56 bits while input remains), or the bits start no
// codeword.
func (d *qualDecoder) streamErr(r *qualBits, slab []byte, n int, decoded bool) error {
	if i := slices.Index(slab[:n], qualEOFSymbol); i >= 0 {
		return fmt.Errorf("compress: quality stream ends early: EOF at symbol %d of %d", i, len(slab))
	}
	if decoded {
		return fmt.Errorf("compress: quality stream continues past its %d symbols", len(slab))
	}
	if r.cnt < d.max {
		return fmt.Errorf("compress: truncated Huffman stream at symbol %d of %d", n, len(slab))
	}
	return fmt.Errorf("compress: invalid Huffman code at symbol %d of %d", n, len(slab))
}

// DecodeQualBlock inverts EncodeQualBlock given the original string lengths.
// The returned strings are disjoint regions of one slab (capacity clipped to
// length): in-place writes stay record-local, appends copy. Symbols are
// decoded flat through 64-bit refills, four table lookups of up to two
// symbols per refill, the last few and the EOF one at a time; a second pass
// turns deltas into values per record and range-checks them. A block it
// refuses is short of its code table, carries a bad table, has lengths past
// what its payload can hold, stops inside a codeword or at a bit pattern that
// is no codeword, ends early or late, carries whole bytes after its EOF, or
// yields a value outside 0..126; the error says which.
func DecodeQualBlock(data []byte, lengths []int) ([][]byte, error) {
	if len(data) < qualAlphabet {
		return nil, fmt.Errorf("compress: quality block shorter than code table")
	}
	lens := (*[qualAlphabet]uint8)(data)
	if err := validateCodeLens(lens[:]); err != nil {
		return nil, err
	}
	payload := data[qualAlphabet:]
	// Every symbol takes at least one payload bit: lengths that sum past that
	// are corrupt, and the bound caps the slab.
	maxSymbols := 8 * len(payload)
	total := 0
	for i, n := range lengths {
		if n < 0 || n > maxSymbols-total {
			return nil, fmt.Errorf("compress: quality length %d of record %d out of bounds for a %d-bit payload", n, i, maxSymbols)
		}
		total += n
	}
	var d qualDecoder
	d.init(lens)
	slab := make([]byte, total)
	r := qualBits{p: payload}
	n, ok := d.decodeGroups(&r, slab)
	for ok && n < total {
		if slab[n], ok = d.next(&r); ok {
			n++
		}
	}
	if !ok {
		return nil, d.streamErr(&r, slab, n, false)
	}
	if sym, ok := d.next(&r); !ok || sym != qualEOFSymbol {
		return nil, d.streamErr(&r, slab, n, ok)
	}
	if extra := (r.cnt + 8*uint(len(r.p)-r.pos)) / 8; extra > 0 {
		return nil, fmt.Errorf("compress: %d trailing bytes after the quality stream's EOF", extra)
	}

	// Pass 2: deltas to values, in uint8. With every earlier value in range,
	// v|(v+1) has bit 7 set exactly when v = prev+sym-127 falls outside 0..126.
	out := make([][]byte, len(lengths))
	var over byte
	pos := 0
	for i, n := range lengths {
		q := slab[pos : pos+n : pos+n]
		pos += n
		prev := byte(0)
		for j, s := range q {
			prev += s - deltaBias
			over |= prev | (prev + 1)
			q[j] = prev
		}
		out[i] = q
	}
	if over&0x80 != 0 {
		return nil, rangeErr(out)
	}
	return out, nil
}

// rangeErr names the first value of decoded quality strings that left
// 0..126, recovering its symbol from the values around it: the EOF symbol
// (which always drives the value out) ends a string early.
func rangeErr(out [][]byte) error {
	for i, q := range out {
		prev := byte(0)
		for j, v := range q {
			if (v|(v+1))&0x80 != 0 {
				sym := v - prev + deltaBias
				if sym == qualEOFSymbol {
					return fmt.Errorf("compress: quality stream ends early: record %d needs %d more symbols", i, len(q)-j)
				}
				return fmt.Errorf("compress: quality value %d out of range in record %d", int(prev)+int(sym)-deltaBias, i)
			}
			prev = v
		}
	}
	return fmt.Errorf("compress: quality value out of range")
}

// decodeGroups fills slab with symbols while eight more of them and eight
// more payload bytes remain, returning how many it decoded; the caller
// finishes with next. ok is false when a bit pattern is no codeword.
func (d *qualDecoder) decodeGroups(r *qualBits, slab []byte) (n int, ok bool) {
	p, pos, buf, cnt := r.p, r.pos, r.buf, r.cnt
	for n+8 <= len(slab) && pos+8 <= len(p) {
		// Refill to at least 56 bits: four windows of qualPairBits.
		buf |= binary.BigEndian.Uint64(p[pos:]) >> cnt
		pos += int(63-cnt) >> 3
		cnt |= 56
		k := 0
		for ; k < 4; k++ {
			e := d.pair[buf>>(64-qualPairBits)]
			if e == 0 {
				break
			}
			l := uint(e & 0xf)
			buf <<= l
			cnt -= l
			// Both bytes are stored; a one-symbol entry's second is
			// overwritten by the next store (n+8 <= len(slab) leaves room).
			slab[n] = byte(e >> 16)
			slab[n+1] = byte(e >> 24)
			n += int(e >> 8 & 3)
		}
		if k < 4 {
			// A codeword longer than the window (or none): one careful
			// symbol, then back to the groups.
			r.pos, r.buf, r.cnt = pos, buf&^(1<<(64-cnt)-1), cnt
			if slab[n], ok = d.next(r); !ok {
				return n, false
			}
			n++
			pos, buf, cnt = r.pos, r.buf, r.cnt
		}
	}
	r.pos, r.buf, r.cnt = pos, buf&^(1<<(64-cnt)-1), cnt
	return n, true
}
