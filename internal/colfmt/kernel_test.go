package colfmt_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"github.com/gpf-go/gpf/internal/colfmt"
	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/testutil/qualgen"
)

// simRecords turns simulator reads into aligned-looking records: the names,
// bases and quality strings a shuffle block of the cleaner carries.
func simRecords(tb testing.TB, seed int64, n int) []sam.Record {
	tb.Helper()
	ref := genome.Synthesize(genome.DefaultSynthConfig(seed, 20000, 1))
	pairs := fastq.Simulate(genome.Mutate(ref, genome.DefaultMutateConfig(seed+1)),
		fastq.DefaultSimConfig(seed+2, float64(n)*100/20000+1))
	var recs []sam.Record
	for i := range pairs {
		for k, rd := range []fastq.Record{pairs[i].R1, pairs[i].R2} {
			recs = append(recs, sam.Record{
				Name: rd.Name, Flag: sam.FlagPaired | uint16(k)<<6, RefID: 0, Pos: int32(37 * i), MapQ: 60,
				Cigar:   sam.Cigar{{Len: len(rd.Seq), Op: 'M'}},
				MateRef: 0, MatePos: int32(37*i + 200), TempLen: 300,
				Seq: rd.Seq, Qual: rd.Qual, Tags: map[string]string{"RG": "rg0"},
			})
		}
	}
	if len(recs) < n {
		tb.Fatalf("simulator drew %d reads, want %d", len(recs), n)
	}
	return recs[:n]
}

// TestKernelBlockEquivalence: the columns' word-wide kernels (2-bit pack and
// unpack, the quality coder) sit behind Marshal and Unmarshal, whose oracles
// live one layer down in compress. Here a block decodes to the records it was
// made from, over random batches (raw-mode quality columns among them),
// simulator reads, a quality byte of exactly 127, and every byte value in a
// sequence; a corrupted block is rejected or decodes, and never panics.
func TestKernelBlockEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2181))
	allBytes := make([]byte, 256)
	for i := range allBytes {
		allBytes[i] = byte(i)
	}
	batches := [][]sam.Record{
		nil, randBatch(rng, 1), randBatch(rng, 12), randBatch(rng, 64), randBatch(rng, 700),
		simRecords(t, 2182, 64), simRecords(t, 2183, 1500),
		{{Name: "edge", Seq: []byte("ACGT"), Qual: []byte{40, 127, 40, 40}}},
		{{Name: "every-base", Seq: allBytes, Qual: bytes.Repeat([]byte{'I'}, 256)}},
	}
	for bi, recs := range batches {
		block, err := colfmt.Codec{}.Marshal(recs)
		if err != nil {
			t.Fatalf("batch %d: marshal: %v", bi, err)
		}
		got, err := colfmt.Codec{}.Unmarshal(block)
		if err != nil {
			t.Fatalf("batch %d: unmarshal of own block: %v", bi, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("batch %d: decoded %d records, want %d", bi, len(got), len(recs))
		}
		for i := range recs {
			if !reflect.DeepEqual(got[i], recs[i]) {
				t.Fatalf("batch %d record %d:\n got %+v\nwant %+v", bi, i, got[i], recs[i])
			}
		}
		for c := 0; c < 40 && len(block) > 0; c++ {
			bad := append([]byte(nil), block...)
			bad[rng.Intn(len(bad))] ^= 1 << rng.Intn(8)
			_, _ = colfmt.Codec{}.Unmarshal(bad) // an error is expected; a panic is the failure
		}
	}
}

// TestQualColumnFallsBackOnDeepCode: a quality column whose delta histogram
// needs a codeword over 31 bits — the block the coder used to write and its
// own decoder to reject with "code length 32 exceeds max 31" — is stored raw
// and round-trips; one rung less still takes the Huffman mode.
func TestQualColumnFallsBackOnDeepCode(t *testing.T) {
	for _, c := range []struct {
		rungs int
		raw   bool
	}{{31, false}, {32, true}} {
		quals := qualgen.Fibonacci(c.rungs)
		recs := make([]sam.Record, len(quals))
		total := 0
		for i, q := range quals {
			recs[i].Qual = q
			total += len(q)
		}
		block, err := colfmt.Codec{}.Marshal(recs)
		if err != nil {
			t.Fatalf("%d rungs: marshal: %v", c.rungs, err)
		}
		if raw := len(block) > total; raw != c.raw {
			t.Fatalf("%d rungs: %d-byte block for %d quality bytes, want raw=%v", c.rungs, len(block), total, c.raw)
		}
		back, err := colfmt.Codec{}.Unmarshal(block)
		if err != nil {
			t.Fatalf("%d rungs: unmarshal of own block: %v", c.rungs, err)
		}
		for j := range recs {
			if !bytes.Equal(back[j].Qual, recs[j].Qual) {
				t.Fatalf("%d rungs: record %d did not round-trip", c.rungs, j)
			}
		}
	}
}

// A 64-record block is what the P×P shuffle cuts: the size at which the
// codec's per-block fixed costs show.
func BenchmarkKernelColumnarMarshal(b *testing.B) {
	recs := simRecords(b, 2191, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (colfmt.Codec{}).Marshal(recs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelColumnarUnmarshal(b *testing.B) {
	block := benchBlock(b, simRecords(b, 2191, 64))
	b.SetBytes(int64(len(block)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (colfmt.Codec{}).Unmarshal(block); err != nil {
			b.Fatal(err)
		}
	}
}
