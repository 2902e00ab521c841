// Package compress implements GPF's genomic data compression (§4.2 of the
// paper): 2-bit sequence encoding with special-character exceptions routed
// through the quality field (Fig 4, after Deorowicz), quality-score delta
// encoding followed by Huffman coding with an EOF symbol (Figs 5-6), and
// partition-level codecs that store whole record batches as single byte
// arrays — the serialized in-memory representation the GPF engine keeps
// resident and shuffles between workers.
//
// Two comparator codecs are included for the paper's baselines: a gob-based
// generic codec (standing in for Java serialization) and a fast field codec
// without genomic modeling (standing in for Kryo).
package compress

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
