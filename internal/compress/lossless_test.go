package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/testutil/allocbudget"
)

// lossyOnFig4 are the reads the Fig 4 marker codec (convertSpecials and
// restoreSpecials, retired) rewrote or refused: lowercase bases, an N whose
// quality is not '#', a quality byte of 0 (its N marker), quality bytes above
// 126, and a quality string shorter than its sequence.
var lossyOnFig4 = []struct{ seq, qual string }{
	{"ACGTacgt", "IIIIIIII"},
	{"ACNT", "IIII"},
	{"ACNT", "II!I"},
	{"ACGT", "I\x00II"},
	{"ACGTACGT", "(\x7f\x80\xc8\xfe\xff\x00!"},
	{"ACGTAC", "II"},
}

// TestGPFPairCodecLossless: every pair round-trips byte for byte, alone in a
// block (Huffman-mode qualities except the raw one) and all in one block,
// beside an empty read and a read of nil fields.
func TestGPFPairCodecLossless(t *testing.T) {
	read := func(name, seq, qual string) fastq.Record {
		return fastq.Record{Name: name, Seq: []byte(seq), Qual: []byte(qual)}
	}
	var all []fastq.Pair
	for i, c := range lossyOnFig4 {
		all = append(all, fastq.Pair{R1: read(fmt.Sprintf("r%d/1", i), c.seq, c.qual), R2: read(fmt.Sprintf("r%d/2", i), "GATTACA", "IIIIIII")})
	}
	all = append(all, fastq.Pair{R1: read("empty", "", "")})
	for i := range all {
		checkPairsLossless(t, all[i:i+1])
	}
	checkPairsLossless(t, all)
}

func checkPairsLossless(t *testing.T, pairs []fastq.Pair) {
	t.Helper()
	block, err := GPFPairCodec{}.Marshal(pairs)
	if err != nil {
		t.Fatalf("marshal of %d pairs: %v", len(pairs), err)
	}
	back, err := GPFPairCodec{}.Unmarshal(block)
	if err != nil {
		t.Fatalf("unmarshal of %d pairs: %v", len(pairs), err)
	}
	if len(back) != len(pairs) {
		t.Fatalf("decoded %d pairs, want %d", len(back), len(pairs))
	}
	for i := range pairs {
		for _, m := range [][2]*fastq.Record{{&pairs[i].R1, &back[i].R1}, {&pairs[i].R2, &back[i].R2}} {
			r, b := m[0], m[1]
			if b.Name != r.Name || !bytes.Equal(b.Seq, r.Seq) || !bytes.Equal(b.Qual, r.Qual) {
				t.Fatalf("%s: %q/%q came back %q/%q", r.Name, r.Seq, r.Qual, b.Seq, b.Qual)
			}
		}
	}
}

// Allocation budget of FuzzSeqQualBlock's decode. The record count is
// checked against one byte per record, and each record reserves two slice
// headers (48 bytes) before the columns are read, then two lengths; the
// slabs hold at most 4 bases and 8 qualities per byte. Worst ratio seen on
// the seeds: 7.4 bytes per byte; 160 bytes on the shortest.
const (
	seqQualPerByte = 96
	seqQualSlack   = 1 << 10
)

// FuzzSeqQualBlock: any batch of byte strings round-trips through
// EncodeSeqQualBlock/DecodeSeqQualBlock unchanged, and the input read as a
// block decodes or errors, never panics or allocates past the budget above.
func FuzzSeqQualBlock(f *testing.F) {
	for _, seed := range fuzzSeqQualSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		allocbudget.Check(t, len(data), seqQualPerByte, seqQualSlack, func() { DecodeSeqQualBlock(data) })
		seqs, quals := splitBatch(data)
		block, err := EncodeSeqQualBlock(seqs, quals)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		bs, bq, err := DecodeSeqQualBlock(block)
		if err != nil {
			t.Fatalf("decode of own block: %v", err)
		}
		if len(bs) != len(seqs) || len(bq) != len(quals) {
			t.Fatalf("decoded %d/%d records, want %d", len(bs), len(bq), len(seqs))
		}
		for i := range seqs {
			if !bytes.Equal(bs[i], seqs[i]) || !bytes.Equal(bq[i], quals[i]) {
				t.Fatalf("record %d: %q/%q came back %q/%q", i, seqs[i], quals[i], bs[i], bq[i])
			}
		}
	})
}

// splitBatch reads data as strings of a length byte and that many bytes
// (fewer at the end), alternately a sequence and its quality string.
func splitBatch(data []byte) (seqs, quals [][]byte) {
	for len(data) > 0 {
		n := min(int(data[0]), len(data)-1)
		s := data[1 : 1+n]
		data = data[1+n:]
		if len(seqs) == len(quals) {
			seqs = append(seqs, s)
		} else {
			quals = append(quals, s)
		}
	}
	if len(quals) < len(seqs) {
		quals = append(quals, nil)
	}
	return seqs, quals
}

// batchBytes is splitBatch's inverse for strings under 256 bytes.
func batchBytes(strs ...string) []byte {
	var out []byte
	for _, s := range strs {
		out = append(append(out, byte(len(s))), s...)
	}
	return out
}

// fuzzSeqQualSeeds are the seeds of FuzzSeqQualBlock, shared with the
// checked-in corpus (TestFuzzSeqQualSeedCorpusInSync): no records, an empty
// record, each read the Fig 4 codec lost, all of them in one batch, and three
// blocks whose lengths lie: 2^19 records in an empty seq column, one
// 2^24-base sequence in a 5-byte seq column, and 2^20 exceptions in a 4-byte
// one.
func fuzzSeqQualSeeds() [][]byte {
	seeds := [][]byte{nil, batchBytes("", "")}
	var all []string
	for _, c := range lossyOnFig4 {
		seeds = append(seeds, batchBytes(c.seq, c.qual))
		all = append(all, c.seq, c.qual)
	}
	return append(seeds, batchBytes(all...),
		append(binary.AppendUvarint(nil, 1<<19), 0),
		append(binary.AppendUvarint([]byte{1, 5}, 1<<24), 0),
		append(binary.AppendUvarint([]byte{0, 4}, 1<<20), 0))
}

// TestFuzzSeqQualSeedCorpusInSync verifies the checked-in corpus matches
// fuzzSeqQualSeeds. Regenerate with GPF_WRITE_FUZZ_CORPUS=1 go test
// ./internal/compress -run TestFuzzSeqQualSeedCorpusInSync.
func TestFuzzSeqQualSeedCorpusInSync(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSeqQualBlock")
	for i, seed := range fuzzSeqQualSeeds() {
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		entry := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.QuoteToASCII(string(seed)))
		if os.Getenv("GPF_WRITE_FUZZ_CORPUS") != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
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
			t.Fatalf("corpus file %s out of sync with fuzzSeqQualSeeds", name)
		}
	}
}
