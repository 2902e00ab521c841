package compress

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/testutil/allocbudget"
	"github.com/gpf-go/gpf/internal/testutil/qualgen"
)

// simQuals returns n quality strings drawn by the read simulator under
// profile — the shape the cleaner's blocks carry.
func simQuals(tb testing.TB, seed int64, n int, profile fastq.QualityProfile) [][]byte {
	tb.Helper()
	ref := genome.Synthesize(genome.DefaultSynthConfig(seed, 20000, 1))
	cfg := fastq.DefaultSimConfig(seed+1, float64(n)*100/20000+1)
	cfg.Profile = profile
	pairs := fastq.Simulate(genome.Mutate(ref, genome.DefaultMutateConfig(seed+2)), cfg)
	var quals [][]byte
	for i := range pairs {
		quals = append(quals, pairs[i].R1.Qual, pairs[i].R2.Qual)
	}
	if len(quals) < n {
		tb.Fatalf("simulator drew %d quality strings, want %d", len(quals), n)
	}
	return quals[:n]
}

// randQuals returns count strings of random length below maxLen with bytes
// uniform in 0..126: a flat delta histogram, so long codes and every symbol.
func randQuals(rng *rand.Rand, count, maxLen int) [][]byte {
	quals := make([][]byte, count)
	for i := range quals {
		q := make([]byte, rng.Intn(maxLen))
		for j := range q {
			q[j] = byte(rng.Intn(maxQualByte + 1))
		}
		quals[i] = q
	}
	return quals
}

// encodeQualBlockRef is the original coder, kept as the equivalence oracle.
// The delta stream is produced and consumed inline (no staging buffer).
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

type huffNode struct {
	weight      int64
	symbol      int // -1 for internal
	left, right *huffNode
}

type huffHeap []*huffNode

func (h huffHeap) Len() int { return len(h) }
func (h huffHeap) Less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight < h[j].weight
	}
	return h[i].symbol < h[j].symbol // deterministic ties
}
func (h huffHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *huffHeap) Push(x interface{}) { *h = append(*h, x.(*huffNode)) }
func (h *huffHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// buildCodeLengths returns the canonical code length per symbol given
// frequencies (0-frequency symbols get length 0 = absent). At least one
// symbol must have nonzero frequency, and the alphabet must not exceed 256
// symbols (depths are uint8). It is the reference tree builder:
// buildCodeLengthsFast reproduces its lengths tie for tie.
func buildCodeLengths(freqs []int64) ([]uint8, error) {
	h := &huffHeap{}
	for sym, f := range freqs {
		if f > 0 {
			heap.Push(h, &huffNode{weight: f, symbol: sym})
		}
	}
	if h.Len() == 0 {
		return nil, fmt.Errorf("compress: no symbols to code")
	}
	if h.Len() == 1 {
		lens := make([]uint8, len(freqs))
		lens[(*h)[0].symbol] = 1
		return lens, nil
	}
	for h.Len() > 1 {
		a := heap.Pop(h).(*huffNode)
		b := heap.Pop(h).(*huffNode)
		heap.Push(h, &huffNode{weight: a.weight + b.weight, symbol: -1, left: a, right: b})
	}
	root := heap.Pop(h).(*huffNode)
	lens := make([]uint8, len(freqs))
	var walk func(n *huffNode, depth uint8)
	walk = func(n *huffNode, depth uint8) {
		if n.symbol >= 0 {
			if depth == 0 {
				depth = 1
			}
			lens[n.symbol] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(root, 0)
	for _, l := range lens {
		if l > maxCodeLen {
			return nil, errCodeTooLong
		}
	}
	return lens, nil
}

// bitWriter packs bits MSB-first into a byte slice through a 64-bit
// accumulator: the reference coder's bit sink.
type bitWriter struct {
	buf  []byte
	acc  uint64
	nAcc uint // bits held in acc
}

// writeBits appends the low n bits of v (MSB of those n first). n must be
// at most 32.
func (w *bitWriter) writeBits(v uint32, n uint) {
	w.acc = w.acc<<n | uint64(v)&((1<<n)-1)
	w.nAcc += n
	for w.nAcc >= 8 {
		w.nAcc -= 8
		w.buf = append(w.buf, byte(w.acc>>w.nAcc))
	}
}

// finish flushes a final partial byte (zero padded) and returns the buffer.
func (w *bitWriter) finish() []byte {
	if w.nAcc > 0 {
		w.buf = append(w.buf, byte(w.acc<<(8-w.nAcc)))
		w.acc, w.nAcc = 0, 0
	}
	return w.buf
}

func qualLengths(quals [][]byte) []int {
	lengths := make([]int, len(quals))
	for i, q := range quals {
		lengths[i] = len(q)
	}
	return lengths
}

// checkEncodeEquivalence asserts both coders write the same bytes for quals,
// or fail alike, and returns the block.
func checkEncodeEquivalence(t *testing.T, quals [][]byte) ([]byte, bool) {
	t.Helper()
	want, errRef := encodeQualBlockRef(quals)
	got, errFast := EncodeQualBlock(quals)
	if (errRef == nil) != (errFast == nil) {
		t.Fatalf("encode: reference err %v, fast err %v", errRef, errFast)
	}
	if errRef != nil {
		if errors.Is(errRef, ErrQualUncodable) != errors.Is(errFast, ErrQualUncodable) {
			t.Fatalf("encode: reference err %v, fast err %v disagree on ErrQualUncodable", errRef, errFast)
		}
		return nil, false
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encode of %d strings: fast block (%d bytes) differs from reference (%d bytes)", len(quals), len(got), len(want))
	}
	return want, true
}

// checkDecodeEquivalence asserts DecodeQualBlock accepts exactly the blocks
// the reference accepts, with equal output, within the allocation budget
// qualPerByte per block byte and string length, and explains every refusal.
func checkDecodeEquivalence(t *testing.T, block []byte, lengths []int) ([][]byte, bool) {
	t.Helper()
	want, errRef := decodeQualBlockRef(block, lengths)
	var got [][]byte
	var errFast error
	allocbudget.Check(t, len(block)+len(lengths), qualPerByte, qualSlack, func() {
		got, errFast = DecodeQualBlock(block, lengths)
	})
	if (errFast == nil) != (errRef == nil) {
		t.Fatalf("decode of %d-byte block, %d strings: fast err %v, reference err %v", len(block), len(lengths), errFast, errRef)
	}
	if errFast != nil {
		if !strings.HasPrefix(errFast.Error(), "compress: ") || got != nil {
			t.Fatalf("decode: refusal %q (output %v) is not a compress error alone", errFast, got)
		}
		return nil, false
	}
	if len(got) != len(want) {
		t.Fatalf("decode: fast %d strings, reference %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("decode: string %d: fast %v, reference %v", i, got[i], want[i])
		}
		if cap(got[i]) != len(got[i]) {
			t.Fatalf("decode: string %d has capacity %d over length %d: an append would write into its neighbour", i, cap(got[i]), len(got[i]))
		}
	}
	return want, true
}

// TestKernelQualBlockEquivalence: the word-wide coder writes the reference's
// bytes and its decoder accepts exactly what the reference accepts, over
// random and simulator-profile batches on both sides of the pair-table
// threshold, and over bit-flipped, truncated and mis-framed blocks.
func TestKernelQualBlockEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2101))
	var batches [][][]byte
	batches = append(batches, nil, [][]byte{{}}, [][]byte{{}, {}, {}}, [][]byte{{0}}, [][]byte{{maxQualByte}},
		[][]byte{bytes.Repeat([]byte{40}, 300)})
	for c := 0; c < 60; c++ {
		batches = append(batches, randQuals(rng, rng.Intn(40), 1+rng.Intn(150)))
	}
	batches = append(batches, randQuals(rng, 500, 200)) // a large block
	hiseq := simQuals(t, 2102, 1200, fastq.ProfileHiSeq())
	gaii := simQuals(t, 2103, 400, fastq.ProfileGAII())
	batches = append(batches, hiseq[:1], hiseq[:7], hiseq[:64], hiseq, gaii[:64], gaii)
	// One-byte strings are one free symbol each: 22 Fibonacci counts make
	// 21-bit codewords, past the two-codewords-per-store emit loop.
	var skewed [][]byte
	for sym, f := range fibonacciFreqs(22)[:qualEOFSymbol] {
		for ; f > 0; f-- {
			skewed = append(skewed, []byte{byte(sym - deltaBias)})
		}
	}
	batches = append(batches, skewed)

	for bi, quals := range batches {
		block, ok := checkEncodeEquivalence(t, quals)
		if !ok {
			t.Fatalf("batch %d: valid qualities did not encode", bi)
		}
		if bi == len(batches)-1 && slices.Max(block[:qualAlphabet]) != 21 {
			t.Fatalf("skewed batch: longest codeword %d bits, want 21", slices.Max(block[:qualAlphabet]))
		}
		lengths := qualLengths(quals)
		back, ok := checkDecodeEquivalence(t, block, lengths)
		if !ok {
			t.Fatalf("batch %d: own block did not decode", bi)
		}
		for i := range quals {
			if !bytes.Equal(back[i], quals[i]) {
				t.Fatalf("batch %d string %d: round trip %v -> %v", bi, i, quals[i], back[i])
			}
		}

		// Corruptions: both decoders must agree on every one of them.
		for c := 0; c < 24; c++ {
			bad := append([]byte(nil), block...)
			badLens := append([]int(nil), lengths...)
			switch c % 6 {
			case 0, 1: // payload bit flip
				if len(bad) > qualAlphabet {
					i := qualAlphabet + rng.Intn(len(bad)-qualAlphabet)
					bad[i] ^= 1 << rng.Intn(8)
				}
			case 2: // code-length table edit
				bad[rng.Intn(qualAlphabet)] = byte(rng.Intn(maxCodeLen + 3))
			case 3: // truncation
				bad = bad[:rng.Intn(len(bad)+1)]
			case 4: // framing asks for more or fewer symbols
				if len(badLens) > 0 {
					i := rng.Intn(len(badLens))
					badLens[i] += rng.Intn(5) - 2
					if badLens[i] < 0 {
						badLens[i] = 0
					}
				}
			case 5: // whole bytes after EOF: both refuse
				bad = append(bad, byte(rng.Intn(256)), byte(rng.Intn(256)))
			}
			checkDecodeEquivalence(t, bad, badLens)
		}
	}
}

// TestKernelQualBlockErrorsNameCause: each way a block can be refused —
// both decoders refusing it — gets its own error from DecodeQualBlock.
func TestKernelQualBlockErrorsNameCause(t *testing.T) {
	enc := func(quals ...[]byte) []byte {
		block, err := EncodeQualBlock(quals)
		if err != nil {
			t.Fatal(err)
		}
		return block
	}
	q := []byte("IIIIHHHGGFFA#")
	block := enc(q, q[:5])
	tooLong := append([]byte(nil), block...)
	tooLong[0] = maxCodeLen + 1
	// EOF "0", delta 0 "10", delta +1 "11": a byte holds four symbols.
	twoBit := make([]byte, qualAlphabet)
	twoBit[qualEOFSymbol], twoBit[deltaBias], twoBit[deltaBias+1] = 1, 2, 2
	// EOF alone codes as "0"; a 1 bit starts no codeword.
	eofOnly := make([]byte, qualAlphabet)
	eofOnly[qualEOFSymbol] = 1
	for _, c := range []struct {
		name    string
		data    []byte
		lengths []int
		want    string
	}{
		{"short", block[:qualAlphabet-1], []int{13, 5}, "shorter than code table"},
		{"long code", tooLong, []int{13, 5}, "exceeds max"},
		{"overfull", bytes.Repeat([]byte{1}, qualAlphabet+4), []int{13, 5}, "overfull Huffman code"},
		{"lengths past payload", block, []int{200, 200}, "out of bounds"},
		{"truncated", append(twoBit, 0xaa), []int{5}, "truncated Huffman stream"},
		{"no codeword", append(eofOnly, 0xff), nil, "invalid Huffman code"},
		{"early EOF", block, []int{13, 6}, "ends early"},
		{"late EOF", block, []int{13, 4}, "continues past"},
		{"trailing bytes", append(slices.Clip(block), 0), []int{13, 5}, "1 trailing bytes after"},
		{"out of range", enc([]byte{1, 0}), []int{1, 1}, "value -1 out of range in record 1"},
	} {
		if _, ok := checkDecodeEquivalence(t, c.data, c.lengths); ok {
			t.Fatalf("%s: block decoded", c.name)
		}
		if _, err := DecodeQualBlock(c.data, c.lengths); !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not say %q", c.name, err, c.want)
		}
	}
}

// TestKernelQualBlockUncodable: a byte above 126 anywhere — word body or
// tail, 127 (whose delta still fits the alphabet), 128 (whose delta from 0 is
// the EOF symbol) or 255 — makes both coders return ErrQualUncodable.
func TestKernelQualBlockUncodable(t *testing.T) {
	for _, b := range []byte{127, 128, 200, 254, 255} {
		for at := 0; at < 11; at++ {
			q := bytes.Repeat([]byte{30}, 11)
			q[at] = b
			for _, quals := range [][][]byte{{q}, {{1, 2, 3}, q}} {
				if _, ok := checkEncodeEquivalence(t, quals); ok {
					t.Fatalf("byte %d at %d encoded", b, at)
				}
				if _, err := EncodeQualBlock(quals); !errors.Is(err, ErrQualUncodable) {
					t.Fatalf("byte %d at %d: err %v, want ErrQualUncodable", b, at, err)
				}
			}
		}
	}
}

// fibonacciFreqs returns a histogram of n Fibonacci weights 1, 1, 2, 3, 5, …
// (the EOF symbol holds the first): the shallowest total that makes a Huffman
// tree n-1 deep.
func fibonacciFreqs(n int) []int64 {
	freqs := make([]int64, qualAlphabet)
	a, b := int64(1), int64(1)
	freqs[qualEOFSymbol] = a
	for k := 1; k < n; k++ {
		freqs[deltaBias+k] = b
		a, b = b, a+b
	}
	return freqs
}

// checkCodeLengths asserts both tree builders return the same lengths for
// freqs, or both refuse.
func checkCodeLengths(t *testing.T, freqs []int64) []uint8 {
	t.Helper()
	want, errRef := buildCodeLengths(freqs)
	var got [qualAlphabet]uint8
	errFast := buildCodeLengthsFast((*[qualAlphabet]int64)(freqs), &got)
	if (errRef == nil) != (errFast == nil) || errors.Is(errRef, errCodeTooLong) != errors.Is(errFast, errCodeTooLong) {
		t.Fatalf("code lengths: reference err %v, fast err %v", errRef, errFast)
	}
	if errRef != nil {
		return nil
	}
	if !bytes.Equal(got[:], want) {
		t.Fatalf("code lengths differ for %v:\nfast      %v\nreference %v", freqs, got, want)
	}
	return want
}

// TestKernelCodeLengthsTieForTie: the array tree builder reproduces the
// pointer-and-container/heap one on histograms full of ties (small weights,
// equal-weight internal nodes), and both stop at maxCodeLen: 32 Fibonacci
// weights code at 31 bits, 33 are refused (the reference used to return
// length 32, which its own decoder rejects), 40 likewise.
func TestKernelCodeLengthsTieForTie(t *testing.T) {
	rng := rand.New(rand.NewSource(2111))
	for c := 0; c < 3000; c++ {
		freqs := make([]int64, qualAlphabet)
		for n := rng.Intn(qualAlphabet + 1); n > 0; n-- {
			freqs[rng.Intn(qualAlphabet)] = int64(1 + rng.Intn(1+c%9))
		}
		checkCodeLengths(t, freqs)
	}
	maxLen := func(lens []uint8) (m uint8) {
		for _, l := range lens {
			m = max(m, l)
		}
		return m
	}
	if got := maxLen(checkCodeLengths(t, fibonacciFreqs(maxCodeLen+1))); got != maxCodeLen {
		t.Fatalf("%d Fibonacci weights: max length %d, want %d", maxCodeLen+1, got, maxCodeLen)
	}
	for _, n := range []int{maxCodeLen + 2, 40} {
		if lens := checkCodeLengths(t, fibonacciFreqs(n)); lens != nil {
			t.Fatalf("%d Fibonacci weights coded with max length %d", n, maxLen(lens))
		}
	}
}

// TestKernelQualBlockCodeLengthEdge: a batch whose longest codeword is
// exactly maxCodeLen bits codes the same through both coders — 31-bit
// codewords through the 64-bit accumulator — and decodes; one rung more is
// refused with ErrQualUncodable by both (the reference used to return that
// block, and its own decoder rejected it).
func TestKernelQualBlockCodeLengthEdge(t *testing.T) {
	quals := qualgen.Fibonacci(maxCodeLen)
	block, ok := checkEncodeEquivalence(t, quals)
	if !ok {
		t.Fatalf("%d rungs did not encode", maxCodeLen)
	}
	if got := slices.Max(block[:qualAlphabet]); got != maxCodeLen {
		t.Fatalf("%d rungs: longest codeword %d bits, want %d", maxCodeLen, got, maxCodeLen)
	}
	back, ok := checkDecodeEquivalence(t, block, qualLengths(quals))
	if !ok {
		t.Fatal("own block did not decode")
	}
	for i := range quals {
		if !bytes.Equal(back[i], quals[i]) {
			t.Fatalf("string %d did not round-trip", i)
		}
	}
	quals = qualgen.Fibonacci(maxCodeLen + 1)
	for _, encode := range []func([][]byte) ([]byte, error){encodeQualBlockRef, EncodeQualBlock} {
		if _, err := encode(quals); !errors.Is(err, ErrQualUncodable) {
			t.Fatalf("%d rungs: err %v, want ErrQualUncodable", maxCodeLen+1, err)
		}
	}
}

// ladderBlock hand-builds a valid block whose code has one symbol at every
// length 1..maxCodeLen (two at the last, the EOF among them) — the deep tree
// no affordable histogram produces — and whose payload is a random walk over
// those deltas encoded with the reference's canonical codes.
func ladderBlock(rng *rand.Rand, lengths []int) []byte {
	lens := make([]uint8, qualAlphabet)
	var deltas []int
	for l := 1; l <= maxCodeLen; l++ {
		d := l / 2
		if l%2 == 1 {
			d = -d
		}
		lens[deltaBias+d] = uint8(l)
		deltas = append(deltas, d)
	}
	lens[qualEOFSymbol] = maxCodeLen
	codes := canonicalCodes(lens)
	var w bitWriter
	for _, n := range lengths {
		v := 0
		for j := 0; j < n; j++ {
			d := deltas[rng.Intn(len(deltas))]
			if rng.Intn(3) > 0 {
				d = deltas[rng.Intn(4)] // mostly short codes, as in real data
			}
			if v+d < 0 || v+d > maxQualByte {
				d = 0
			}
			v += d
			c := codes[deltaBias+d]
			w.writeBits(c.bits, uint(c.len))
		}
	}
	c := codes[qualEOFSymbol]
	w.writeBits(c.bits, uint(c.len))
	return append(lens, w.finish()...)
}

// TestKernelQualBlockLongCodes: codes past the single table, past the pair
// table and at the 31-bit bound decode alike, below and above the pair-table
// threshold, whole and truncated anywhere.
func TestKernelQualBlockLongCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(2121))
	for _, lengths := range [][]int{{0}, {1}, {5, 0, 9}, {100, 100, 37}, {20999, 250}} {
		block := ladderBlock(rng, lengths)
		if _, ok := checkDecodeEquivalence(t, block, lengths); !ok {
			t.Fatalf("lengths %v: hand-built block did not decode", lengths)
		}
		for c := 0; c < 40; c++ {
			cut := qualAlphabet + rng.Intn(len(block)-qualAlphabet+1)
			checkDecodeEquivalence(t, block[:cut], lengths)
			bad := append([]byte(nil), block...)
			bad[qualAlphabet+rng.Intn(len(bad)-qualAlphabet)] ^= 1 << rng.Intn(8)
			checkDecodeEquivalence(t, bad, lengths)
		}
	}
}

// --- fuzz ---

// fuzzQualSeed is one seed of FuzzQualBlockDifferential.
type fuzzQualSeed struct {
	data []byte
	kind uint8
}

// framedBlock renders the kind-1 input: record count, one length byte per
// record, the block.
func framedBlock(lengths []byte, block []byte) []byte {
	return append(append([]byte{byte(len(lengths))}, lengths...), block...)
}

// histogramBytes renders the kind-2 input: one uvarint per symbol.
func histogramBytes(freqs []int64) []byte {
	var out []byte
	for _, f := range freqs {
		out = binary.AppendUvarint(out, uint64(f))
	}
	return out
}

// fuzzQualSeeds are the deterministic seeds shared by the fuzz target and the
// checked-in corpus (TestFuzzQualSeedCorpusInSync).
func fuzzQualSeeds(tb testing.TB) []fuzzQualSeed {
	enc := func(quals ...[]byte) []byte {
		block, err := encodeQualBlockRef(quals)
		if err != nil {
			tb.Fatalf("seed encode: %v", err)
		}
		return block
	}
	q := []byte("IIIIHHHGGFFA#")
	block := enc(q, q[:5])
	overfull := make([]byte, qualAlphabet+4)
	for i := range overfull[:qualAlphabet] {
		overfull[i] = 1
	}
	return []fuzzQualSeed{
		{nil, 0},                         // no records: EOF alone, a length-1 code
		{[]byte{4, 0, 0, 0, 0, 0, 0}, 0}, // one distinct delta symbol beside EOF
		{append([]byte{5}, q...), 0},     // ordinary strings
		{[]byte{3, 40, 127, 40}, 0},      // byte 127: uncodable, raw mode upstream
		{[]byte{3, 40, 128, 40}, 0},      // byte 128: its delta from 0 is the EOF symbol
		{framedBlock(nil, enc()), 1},     // empty block
		{framedBlock([]byte{13, 5}, block), 1},
		{framedBlock([]byte{13, 5}, block[:len(block)-1]), 1},       // truncated payload
		{framedBlock([]byte{13, 6}, block), 1},                      // early EOF
		{framedBlock([]byte{13, 4}, block), 1},                      // trailing symbols
		{framedBlock([]byte{13, 5}, overfull), 1},                   // over-full Kraft table
		{framedBlock([]byte{200, 200}, block), 1},                   // lengths sum past 8 x payload
		{framedBlock([]byte{13, 5}, block[:qualAlphabet-1]), 1},     // shorter than the table
		{histogramBytes(fibonacciFreqs(maxCodeLen + 1)), 2},         // deepest tree that codes
		{histogramBytes(fibonacciFreqs(maxCodeLen + 2)), 2},         // one level too deep
		{histogramBytes([]int64{3, 3, 3, 3, 6, 6, 12, 1, 1, 2}), 2}, // equal-weight internal nodes
	}
}

// Allocation budget of DecodeQualBlock in checkDecodeEquivalence, per block
// byte and string length: a payload byte holds at most 8 symbols, and each
// string costs a slice header. Worst ratio seen: 0.4 bytes per byte on the
// fuzz seeds, 18.8 on the 46 366 one-byte strings of
// TestKernelQualBlockEquivalence.
const (
	qualPerByte = 32
	qualSlack   = 1 << 10
)

// FuzzQualBlockDifferential holds the word-wide quality coder to the
// reference on three readings of the input, chosen by kind mod 3: as quality
// strings (encoded bytes equal, or both refuse; then the decoders agree and
// round-trip), as a framed block (both decoders accept the same blocks, with
// equal strings, and refuse the rest), and as a symbol histogram (code
// lengths equal tie for tie, or both refuse at maxCodeLen). The first two
// decode within the budget above; a histogram decodes nothing.
func FuzzQualBlockDifferential(f *testing.F) {
	for _, s := range fuzzQualSeeds(f) {
		f.Add(s.data, s.kind)
	}
	f.Fuzz(func(t *testing.T, data []byte, kind uint8) {
		switch kind % 3 {
		case 0:
			var quals [][]byte
			if len(data) > 0 {
				step := int(data[0])%150 + 1
				for rest := data[1:]; len(rest) > 0; {
					n := min(step, len(rest))
					quals = append(quals, rest[:n])
					rest = rest[n:]
				}
			}
			block, ok := checkEncodeEquivalence(t, quals)
			if !ok {
				return
			}
			back, ok := checkDecodeEquivalence(t, block, qualLengths(quals))
			if !ok {
				t.Fatalf("own block did not decode")
			}
			for i := range quals {
				if !bytes.Equal(back[i], quals[i]) {
					t.Fatalf("string %d: round trip %v -> %v", i, quals[i], back[i])
				}
			}
		case 1:
			if len(data) == 0 || len(data) < 1+int(data[0]) {
				return
			}
			lengths := make([]int, data[0])
			for i := range lengths {
				lengths[i] = int(data[1+i])
			}
			checkDecodeEquivalence(t, data[1+len(lengths):], lengths)
		case 2:
			freqs := make([]int64, qualAlphabet)
			for sym := 0; sym < qualAlphabet && len(data) > 0; sym++ {
				v, n := binary.Uvarint(data)
				if n <= 0 {
					break
				}
				data = data[n:]
				freqs[sym] = int64(v % (1 << 40)) // sums stay below the heap key's 2^55
			}
			checkCodeLengths(t, freqs)
		}
	})
}

// fuzzQualCorpusDir is the checked-in seed corpus `go test -fuzz` merges with
// the f.Add seeds.
func fuzzQualCorpusDir() string {
	return filepath.Join("testdata", "fuzz", "FuzzQualBlockDifferential")
}

// TestFuzzQualSeedCorpusInSync verifies the checked-in corpus matches
// fuzzQualSeeds. Regenerate with GPF_WRITE_FUZZ_CORPUS=1 go test
// ./internal/compress -run TestFuzzQualSeedCorpusInSync.
func TestFuzzQualSeedCorpusInSync(t *testing.T) {
	for i, seed := range fuzzQualSeeds(t) {
		name := filepath.Join(fuzzQualCorpusDir(), fmt.Sprintf("seed-%02d", i))
		entry := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\nbyte(%q)\n", strconv.QuoteToASCII(string(seed.data)), seed.kind)
		if os.Getenv("GPF_WRITE_FUZZ_CORPUS") != "" {
			if err := os.MkdirAll(fuzzQualCorpusDir(), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(name, []byte(entry), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("corpus file missing (regenerate with GPF_WRITE_FUZZ_CORPUS=1): %v", err)
		}
		if string(got) != entry {
			t.Fatalf("corpus file %s out of sync with fuzzQualSeeds", name)
		}
	}
}

// --- benchmarks ---

var benchSink int

func benchQualBlocks(b *testing.B, records int) ([][]byte, []byte, []int) {
	quals := simQuals(b, 2131, records, fastq.ProfileHiSeq())
	block, err := encodeQualBlockRef(quals)
	if err != nil {
		b.Fatal(err)
	}
	return quals, block, qualLengths(quals)
}

func benchQualEncode(b *testing.B, encode func([][]byte) ([]byte, error)) {
	for _, records := range []int{64, 2000} {
		b.Run(fmt.Sprint(records), func(b *testing.B) {
			quals, _, _ := benchQualBlocks(b, records)
			b.SetBytes(int64(records * len(quals[0])))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				block, err := encode(quals)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(block)
			}
		})
	}
}

func BenchmarkKernelQualBlockEncodeReference(b *testing.B) { benchQualEncode(b, encodeQualBlockRef) }
func BenchmarkKernelQualBlockEncodeFast(b *testing.B)      { benchQualEncode(b, EncodeQualBlock) }

func benchQualDecode(b *testing.B, decode func([]byte, []int) ([][]byte, error)) {
	for _, records := range []int{64, 2000} {
		b.Run(fmt.Sprint(records), func(b *testing.B) {
			quals, block, lengths := benchQualBlocks(b, records)
			b.SetBytes(int64(records * len(quals[0])))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := decode(block, lengths)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(out)
			}
		})
	}
}

func BenchmarkKernelQualBlockDecodeReference(b *testing.B) { benchQualDecode(b, decodeQualBlockRef) }
func BenchmarkKernelQualBlockDecodeFast(b *testing.B)      { benchQualDecode(b, DecodeQualBlock) }
