package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
)

func TestBitIORoundTrip(t *testing.T) {
	var w bitWriter
	w.writeBits(0b101, 3)
	w.writeBits(0b11110000, 8)
	w.writeBits(0b1, 1)
	data := w.finish()
	r := &bitReader{buf: data}
	if v, ok := r.readBits(3); !ok || v != 0b101 {
		t.Fatalf("read 3 bits = %b", v)
	}
	if v, ok := r.readBits(8); !ok || v != 0b11110000 {
		t.Fatalf("read 8 bits = %b", v)
	}
	if v, ok := r.readBits(1); !ok || v != 1 {
		t.Fatalf("read 1 bit = %b", v)
	}
}

func TestBitReaderExhaustion(t *testing.T) {
	r := &bitReader{buf: []byte{0xFF}}
	if _, ok := r.readBits(9); ok {
		t.Fatal("reading past end should fail")
	}
}

func TestPackSeqRoundTrip(t *testing.T) {
	seq := []byte("ACGTACGTTTGGCCAA")
	packed := Pack2Bit(nil, seq)
	if len(packed) != 4 {
		t.Fatalf("packed %d bytes, want 4", len(packed))
	}
	back := make([]byte, len(seq))
	consumed, err := Unpack2Bit(back, packed)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != 4 || !bytes.Equal(back, seq) {
		t.Fatalf("unpacked %q (consumed %d)", back, consumed)
	}
}

func TestQualBlockRoundTrip(t *testing.T) {
	quals := [][]byte{[]byte("CCCB#FFFF"), []byte("IIIIIHHH"), {}}
	enc, err := EncodeQualBlock(quals)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeQualBlock(enc, []int{9, 8, 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := range quals {
		if !bytes.Equal(back[i], quals[i]) {
			t.Fatalf("qual %d = %q, want %q", i, back[i], quals[i])
		}
	}
}

func TestQualBlockWrongLengths(t *testing.T) {
	enc, err := EncodeQualBlock([][]byte{[]byte("IIII")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeQualBlock(enc, []int{5}); err == nil {
		t.Fatal("longer lengths than stream should error")
	}
	if _, err := DecodeQualBlock(enc, []int{3}); err == nil {
		t.Fatal("shorter lengths than stream should error")
	}
}

func TestSeqQualBlockRoundTrip(t *testing.T) {
	seqs := [][]byte{[]byte("GGTTNCCTA"), []byte("ACGT"), []byte("NNNN")}
	quals := [][]byte{[]byte("CCCB#FFFF"), []byte("IIII"), []byte("####")}
	enc, err := EncodeSeqQualBlock(seqs, quals)
	if err != nil {
		t.Fatal(err)
	}
	backSeqs, backQuals, err := DecodeSeqQualBlock(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seqs {
		if !bytes.Equal(backSeqs[i], seqs[i]) {
			t.Fatalf("seq %d = %q, want %q", i, backSeqs[i], seqs[i])
		}
		if !bytes.Equal(backQuals[i], quals[i]) {
			t.Fatalf("qual %d = %q, want %q", i, backQuals[i], quals[i])
		}
	}
}

func TestSeqQualBlockMismatch(t *testing.T) {
	if _, err := EncodeSeqQualBlock([][]byte{[]byte("AC")}, nil); err == nil {
		t.Fatal("count mismatch should error")
	}
}

// Property: seq/qual block round-trip is the identity for random reads, with
// N and lowercase bases at any quality.
func TestSeqQualBlockProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%8) + 1
		seqs := make([][]byte, count)
		quals := make([][]byte, count)
		for i := 0; i < count; i++ {
			l := rng.Intn(150) + 1
			s := make([]byte, l)
			q := make([]byte, l)
			for j := 0; j < l; j++ {
				s[j] = genome.Alphabet[rng.Intn(4)]
				q[j] = byte(33 + rng.Intn(42))
				if rng.Float64() < 0.02 {
					s[j] = "Nnacgt"[rng.Intn(6)]
				}
			}
			seqs[i], quals[i] = s, q
		}
		enc, err := EncodeSeqQualBlock(seqs, quals)
		if err != nil {
			return false
		}
		bs, bq, err := DecodeSeqQualBlock(enc)
		if err != nil {
			return false
		}
		for i := range seqs {
			if !bytes.Equal(bs[i], seqs[i]) || !bytes.Equal(bq[i], quals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func simulatedPairs(t *testing.T, n int) []fastq.Pair {
	t.Helper()
	ref := genome.Synthesize(genome.DefaultSynthConfig(31, 30000, 1))
	donor := genome.Mutate(ref, genome.DefaultMutateConfig(32))
	pairs := fastq.Simulate(donor, fastq.DefaultSimConfig(33, 10))
	if len(pairs) < n {
		t.Fatalf("only %d pairs simulated", len(pairs))
	}
	return pairs[:n]
}

func TestGPFPairCodecRoundTrip(t *testing.T) {
	pairs := simulatedPairs(t, 100)
	var codec GPFPairCodec
	enc, err := codec.Marshal(pairs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := codec.Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(pairs) {
		t.Fatalf("decoded %d pairs", len(back))
	}
	for i := range pairs {
		if back[i].R1.Name != pairs[i].R1.Name ||
			!bytes.Equal(back[i].R1.Seq, pairs[i].R1.Seq) ||
			!bytes.Equal(back[i].R1.Qual, pairs[i].R1.Qual) ||
			!bytes.Equal(back[i].R2.Seq, pairs[i].R2.Seq) {
			t.Fatalf("pair %d mismatch", i)
		}
	}
}

func TestCodecCompressionOrdering(t *testing.T) {
	// The paper's claim (§4.2, Table 3): the GPF codec beats generic
	// serializers on genomic records. Verify gpf < field < gob sizes.
	pairs := simulatedPairs(t, 200)
	gpfEnc, err := GPFPairCodec{}.Marshal(pairs)
	if err != nil {
		t.Fatal(err)
	}
	fieldEnc, err := FieldPairCodec{}.Marshal(pairs)
	if err != nil {
		t.Fatal(err)
	}
	gobEnc, err := engine.GobCodec[fastq.Pair]{}.Marshal(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if !(len(gpfEnc) < len(fieldEnc) && len(fieldEnc) < len(gobEnc)) {
		t.Fatalf("sizes gpf=%d field=%d gob=%d; want gpf < field < gob",
			len(gpfEnc), len(fieldEnc), len(gobEnc))
	}
	// The paper reports ~45% reduction for FASTQ RDDs (Table 3: 20.0->11.1GB).
	if r := Ratio(len(fieldEnc), len(gpfEnc)); r < 1.5 {
		t.Fatalf("gpf/field ratio = %.2f; want >= 1.5", r)
	}
}

func TestFieldPairCodecRoundTrip(t *testing.T) {
	pairs := simulatedPairs(t, 50)
	enc, err := FieldPairCodec{}.Marshal(pairs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FieldPairCodec{}.Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pairs {
		if back[i].R1.Name != pairs[i].R1.Name || !bytes.Equal(back[i].R2.Qual, pairs[i].R2.Qual) {
			t.Fatalf("pair %d mismatch", i)
		}
	}
}

func sampleSAMRecords() []sam.Record {
	c1, _ := sam.ParseCigar("50M")
	c2, _ := sam.ParseCigar("10S30M2D10M")
	return []sam.Record{
		{Name: "r1", Flag: sam.FlagPaired, RefID: 0, Pos: 100, MapQ: 60, Cigar: c1,
			MateRef: 0, MatePos: 300, TempLen: 250,
			Seq: bytes.Repeat([]byte("ACGT"), 13)[:50], Qual: bytes.Repeat([]byte("I"), 50),
			Tags: map[string]string{"RG": "rg1", "LB": "lib1"}},
		{Name: "r2", Flag: sam.FlagUnmapped, RefID: -1, Pos: -1, MateRef: -1, MatePos: -1,
			Seq: []byte("NNNNA"), Qual: []byte("####I")},
		{Name: "r3", Flag: sam.FlagReverse, RefID: 1, Pos: 5, MapQ: 13, Cigar: c2,
			MateRef: -1, MatePos: -1, Seq: bytes.Repeat([]byte("G"), 52), Qual: bytes.Repeat([]byte("H"), 52)},
	}
}

func samEqual(a, b *sam.Record) bool {
	if a.Name != b.Name || a.Flag != b.Flag || a.RefID != b.RefID || a.Pos != b.Pos ||
		a.MapQ != b.MapQ || a.Cigar.String() != b.Cigar.String() ||
		a.MateRef != b.MateRef || a.MatePos != b.MatePos || a.TempLen != b.TempLen ||
		!bytes.Equal(a.Seq, b.Seq) || !bytes.Equal(a.Qual, b.Qual) {
		return false
	}
	if len(a.Tags) != len(b.Tags) {
		return false
	}
	for k, v := range a.Tags {
		if b.Tags[k] != v {
			return false
		}
	}
	return true
}

// manyTagRecords returns n unmapped records with five tags each: an encoder
// that walks a tag map in iteration order instead of sorted key order writes
// different bytes for them on two calls, with near certainty.
func manyTagRecords(n int) []sam.Record {
	out := make([]sam.Record, n)
	for i := range out {
		out[i] = sam.Record{Name: "t" + strconv.Itoa(i), Flag: sam.FlagUnmapped, RefID: -1, Pos: -1,
			MateRef: -1, MatePos: -1, Seq: []byte("ACGT"), Qual: []byte("IIII"),
			Tags: map[string]string{"RG": "rg1", "LB": "lib1", "PG": "gpf", "MC": "50M", "XS": strconv.Itoa(i)}}
	}
	return out
}

func TestFieldSAMCodecRoundTrip(t *testing.T) {
	records := append(sampleSAMRecords(), manyTagRecords(8)...)
	enc, err := FieldSAMCodec{}.Marshal(records)
	if err != nil {
		t.Fatal(err)
	}
	// Shuffle blocks must be byte-identical across runs.
	if again, err := (FieldSAMCodec{}).Marshal(records); err != nil || !bytes.Equal(again, enc) {
		t.Fatalf("a second encoding of the same records differs (err %v): tags written in map order", err)
	}
	back, err := FieldSAMCodec{}.Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range records {
		if !samEqual(&records[i], &back[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestUnmarshalCorruptData(t *testing.T) {
	if _, err := (GPFPairCodec{}).Unmarshal([]byte{0xFF}); err == nil {
		t.Fatal("corrupt pair data should error")
	}
	if _, err := (FieldSAMCodec{}).Unmarshal([]byte{0x01, 0x00}); err == nil {
		t.Fatal("corrupt sam data should error")
	}
	if _, err := (FieldPairCodec{}).Unmarshal([]byte{0x02, 0x05}); err == nil {
		t.Fatal("corrupt field data should error")
	}
}

// TestReadSAMFixedBoundsTagCount: a corrupt tag count must error before it
// sizes the tag map (pre-fix this line allocated a map hinted at 2^40
// entries).
func TestReadSAMFixedBoundsTagCount(t *testing.T) {
	rec := sam.Record{Name: "r1"}
	enc := appendSAMFixed(nil, &rec)
	// The encoding ends with the tag count (a single 0x00 varint); replace
	// it with an absurd count and no tag payload behind it.
	enc = binary.AppendUvarint(enc[:len(enc)-1], 1<<40)
	var got sam.Record
	if _, err := readSAMFixed(enc, &got); err == nil {
		t.Fatal("tag count exceeding the payload must error, not allocate")
	}
}

// TestDecodersRejectBytesTheyNeverWrote: a valid block with one byte
// appended is refused, and so is a field record whose flag or coordinates do
// not fit sam.Record; each error names the cause.
func TestDecodersRejectBytesTheyNeverWrote(t *testing.T) {
	seqs, quals := [][]byte{[]byte("ACGTN"), []byte("GG")}, [][]byte{[]byte("IIIIH"), []byte("#I")}
	qualBlock, err := EncodeQualBlock(quals)
	if err != nil {
		t.Fatal(err)
	}
	qualCol, err := AppendQualColumn(nil, 2, func(i int) []byte { return quals[i] })
	if err != nil {
		t.Fatal(err)
	}
	seqQual, err := EncodeSeqQualBlock(seqs, quals)
	if err != nil {
		t.Fatal(err)
	}
	pairs := simulatedPairs(t, 3)
	gpfPairs, err := GPFPairCodec{}.Marshal(pairs)
	if err != nil {
		t.Fatal(err)
	}
	fieldPairs, _ := FieldPairCodec{}.Marshal(pairs)
	fieldSAM, _ := FieldSAMCodec{}.Marshal(sampleSAMRecords())
	plus := func(b []byte) []byte { return append(slices.Clip(b), 0) }
	// fixed hand-writes a FieldSAMCodec record prefix: name "r", flag, RefID,
	// Pos, MAPQ 0, no cigar, MateRef, MatePos, TempLen, no tags.
	fixed := func(flag uint64, v [5]int64) []byte {
		b := binary.AppendUvarint(appendString(nil, "r"), flag)
		b = binary.AppendVarint(binary.AppendVarint(b, v[0]), v[1])
		b = append(b, 0, 0)
		for _, x := range v[2:] {
			b = binary.AppendVarint(b, x)
		}
		return append(b, 0)
	}
	readFixed := func(b []byte) error {
		var r sam.Record
		_, err := readSAMFixed(b, &r)
		return err
	}
	if err := readFixed(fixed(0xffff, [5]int64{math.MaxInt32, math.MinInt32, -1, 0, math.MaxInt32})); err != nil {
		t.Fatalf("in-range record refused: %v", err)
	}
	for _, c := range []struct {
		name   string
		decode func() error
		want   string
	}{
		{"qual block", func() error { _, err := DecodeQualBlock(plus(qualBlock), []int{5, 2}); return err }, "1 trailing bytes after the quality stream's EOF"},
		{"qual column", func() error { return DecodeQualColumn(plus(qualCol), 2, func(int, []byte) {}) }, "1 trailing bytes after"},
		{"seq/qual block", func() error { _, _, err := DecodeSeqQualBlock(plus(seqQual)); return err }, "1 trailing bytes after"},
		{"gpf pairs", func() error { _, err := GPFPairCodec{}.Unmarshal(plus(gpfPairs)); return err }, "1 trailing bytes after"},
		{"field pairs", func() error { _, err := FieldPairCodec{}.Unmarshal(plus(fieldPairs)); return err }, "1 trailing bytes after 3 pairs"},
		{"field sam", func() error { _, err := FieldSAMCodec{}.Unmarshal(plus(fieldSAM)); return err }, "1 trailing bytes after 3 records"},
		{"flag", func() error { return readFixed(fixed(0x10003, [5]int64{})) }, "flag 0x10003 out of range"},
		{"RefID", func() error { return readFixed(fixed(0, [5]int64{1 << 31, 0, 0, 0, 0})) }, "RefID 2147483648 out of int32 range"},
		{"Pos", func() error { return readFixed(fixed(0, [5]int64{0, math.MinInt32 - 1, 0, 0, 0})) }, "Pos -2147483649 out of"},
		{"MateRef", func() error { return readFixed(fixed(0, [5]int64{0, 0, 1 << 40, 0, 0})) }, "MateRef 1099511627776 out of"},
		{"MatePos", func() error { return readFixed(fixed(0, [5]int64{0, 0, 0, -1 << 33, 0})) }, "MatePos -8589934592 out of"},
		{"TempLen", func() error { return readFixed(fixed(0, [5]int64{0, 0, 0, 0, 1 << 31})) }, "TempLen 2147483648 out of"},
	} {
		if err := c.decode(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one saying %q", c.name, err, c.want)
		}
	}
}

func TestRatio(t *testing.T) {
	if Ratio(100, 50) != 2 {
		t.Fatal("ratio broken")
	}
	if Ratio(100, 0) != 0 {
		t.Fatal("zero compressed size should yield 0")
	}
}

func BenchmarkGPFPairCodecMarshal(b *testing.B) {
	ref := genome.Synthesize(genome.DefaultSynthConfig(31, 30000, 1))
	donor := genome.Mutate(ref, genome.DefaultMutateConfig(32))
	pairs := fastq.Simulate(donor, fastq.DefaultSimConfig(33, 10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (GPFPairCodec{}).Marshal(pairs); err != nil {
			b.Fatal(err)
		}
	}
}
