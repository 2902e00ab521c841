package compress

import (
	"errors"
	"fmt"

	"github.com/gpf-go/gpf/internal/kernels"
)

// The quality codec implements Figs 5-6 of the paper: quality strings are
// converted to the sequence of differences between adjacent scores (the
// "Delta sequence", character range -127..127) — which is far more
// concentrated than the scores themselves — and the delta stream is Huffman
// coded with a terminating EOF symbol.

// Quality symbols: raw quality bytes are 0..126 (0 is the N marker). The
// first value of each string is delta-coded against 0, so deltas span
// -126..+126; symbol = delta + deltaBias. EOF takes the top symbol.
const (
	deltaBias     = 127
	qualAlphabet  = 256
	qualEOFSymbol = 255
	maxQualByte   = 126
)

// ErrQualUncodable reports a batch the delta-Huffman coder cannot represent:
// a quality byte above 126 (its delta would collide with the EOF symbol or
// leave the alphabet), or a delta histogram so skewed that its Huffman tree
// is deeper than the 31-bit codeword bound. Callers with a raw fallback
// (colfmt's qual column) switch to it on this error.
var ErrQualUncodable = errors.New("compress: quality block not codable as delta-Huffman")

// EncodeQualBlock compresses a batch of quality strings: a 256-entry
// code-length table (one byte per symbol) followed by the Huffman payload
// ending in EOF. Lengths are carried externally by the block framing. It
// dispatches between the word-wide coder (quality_fast.go) and the reference
// below on the kernels switch; both write the same bytes.
func EncodeQualBlock(quals [][]byte) ([]byte, error) {
	if kernels.Enabled() {
		return encodeQualBlockFast(quals)
	}
	return encodeQualBlockRef(quals)
}

// encodeQualBlockRef is the original coder, kept as the equivalence oracle
// and the kernels.SetEnabled(false) path. The delta stream is produced and
// consumed inline (no staging buffer).
func encodeQualBlockRef(quals [][]byte) ([]byte, error) {
	// Pass 1: delta-symbol frequencies.
	freqs := make([]int64, qualAlphabet)
	total := 0
	for _, q := range quals {
		total += len(q)
		prev := 0
		for _, b := range q {
			if b > maxQualByte {
				return nil, fmt.Errorf("%w: quality byte %d", ErrQualUncodable, b)
			}
			freqs[int(b)-prev+deltaBias]++
			prev = int(b)
		}
	}
	freqs[qualEOFSymbol]++
	lens, err := buildCodeLengths(freqs)
	if err != nil {
		if errors.Is(err, errCodeTooLong) {
			return nil, fmt.Errorf("%w: %v", ErrQualUncodable, err)
		}
		return nil, err
	}
	codes := canonicalCodes(lens)
	// Pass 2: emit (reserve ~4 bits/symbol, the typical entropy).
	w := bitWriter{buf: make([]byte, 0, total/2+16)}
	for _, q := range quals {
		prev := 0
		for _, b := range q {
			c := codes[int(b)-prev+deltaBias]
			w.writeBits(c.bits, uint(c.len))
			prev = int(b)
		}
	}
	eof := codes[qualEOFSymbol]
	w.writeBits(eof.bits, uint(eof.len))
	payload := w.finish()
	out := make([]byte, 0, qualAlphabet+len(payload))
	out = append(out, lens...)
	out = append(out, payload...)
	return out, nil
}

// DecodeQualBlock inverts EncodeQualBlock given the original string lengths.
// With the kernels on, the returned strings are disjoint regions of one slab
// (capacity clipped to length): in-place writes stay record-local, appends
// copy. Any block the word-wide decoder cannot vouch for goes to the
// reference decoder, which owns every error message.
func DecodeQualBlock(data []byte, lengths []int) ([][]byte, error) {
	if kernels.Enabled() {
		if out, ok := decodeQualBlockFast(data, lengths); ok {
			return out, nil
		}
	}
	return decodeQualBlockRef(data, lengths)
}

// decodeQualBlockRef is the original decoder, kept as the equivalence oracle,
// the error path and the kernels.SetEnabled(false) path. Symbols are decoded
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
	return out, nil
}
