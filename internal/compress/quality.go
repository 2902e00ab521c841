package compress

import (
	"errors"
	"fmt"
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

// DecodeQualBlock inverts EncodeQualBlock given the original string lengths.
// The returned strings are disjoint regions of one slab (capacity clipped to
// length): in-place writes stay record-local, appends copy. Any block the
// word-wide decoder (quality_fast.go) cannot vouch for goes to
// decodeQualBlockRef, which owns every error message.
func DecodeQualBlock(data []byte, lengths []int) ([][]byte, error) {
	if out, ok := decodeQualBlockFast(data, lengths); ok {
		return out, nil
	}
	return decodeQualBlockRef(data, lengths)
}

// decodeQualBlockRef is the symbol-at-a-time decoder: the fallback for every
// block decodeQualBlockFast refuses — so it owns every decode error — and the
// fast decoder's equivalence oracle. Symbols are decoded straight into the
// output quality strings.
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
