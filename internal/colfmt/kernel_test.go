package colfmt_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"github.com/gpf-go/gpf/internal/colfmt"
	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/kernels"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/testutil/qualgen"
)

// withKernels runs fn with the hot kernels on or off.
func withKernels(on bool, fn func()) {
	defer kernels.SetEnabled(kernels.SetEnabled(on))
	fn()
}

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

// TestKernelBlockEquivalence: a block is the same bytes with the kernels on
// and off, and decodes to the same records, over random batches (raw-mode
// quality columns among them), simulator reads, a quality byte of exactly
// 127, and every byte value in a sequence; a corrupted block is rejected by
// both or decodes alike.
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
		var fast, slow []byte
		var errFast, errSlow error
		withKernels(true, func() { fast, errFast = colfmt.Codec{}.Marshal(recs) })
		withKernels(false, func() { slow, errSlow = colfmt.Codec{}.Marshal(recs) })
		if errFast != nil || errSlow != nil {
			t.Fatalf("batch %d: marshal: fast %v, reference %v", bi, errFast, errSlow)
		}
		if !bytes.Equal(fast, slow) {
			t.Fatalf("batch %d: block differs with kernels on (%d bytes) and off (%d bytes)", bi, len(fast), len(slow))
		}
		for c := 0; c < 40; c++ {
			block := append([]byte(nil), fast...)
			if c > 0 && len(block) > 0 {
				block[rng.Intn(len(block))] ^= 1 << rng.Intn(8)
			}
			var gotFast, gotSlow []sam.Record
			withKernels(true, func() { gotFast, errFast = colfmt.Codec{}.Unmarshal(block) })
			withKernels(false, func() { gotSlow, errSlow = colfmt.Codec{}.Unmarshal(block) })
			if (errFast == nil) != (errSlow == nil) {
				t.Fatalf("batch %d corruption %d: fast err %v, reference err %v", bi, c, errFast, errSlow)
			}
			if errFast == nil && !reflect.DeepEqual(gotFast, gotSlow) {
				t.Fatalf("batch %d corruption %d: decoded records differ", bi, c)
			}
		}
	}
}

// TestQualColumnFallsBackOnDeepCode: a quality column whose delta histogram
// needs a codeword over 31 bits — the block the coder used to write and its
// own decoder to reject with "code length 32 exceeds max 31" — is stored raw
// and round-trips, with the kernels on and off; one rung less still takes the
// Huffman mode, identically under both.
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
		var blocks [2][]byte
		for i, on := range []bool{true, false} {
			withKernels(on, func() {
				block, err := colfmt.Codec{}.Marshal(recs)
				if err != nil {
					t.Fatalf("%d rungs, kernels=%v: marshal: %v", c.rungs, on, err)
				}
				blocks[i] = block
				if raw := len(block) > total; raw != c.raw {
					t.Fatalf("%d rungs, kernels=%v: %d-byte block for %d quality bytes, want raw=%v", c.rungs, on, len(block), total, c.raw)
				}
				back, err := colfmt.Codec{}.Unmarshal(block)
				if err != nil {
					t.Fatalf("%d rungs, kernels=%v: unmarshal of own block: %v", c.rungs, on, err)
				}
				for j := range recs {
					if !bytes.Equal(back[j].Qual, recs[j].Qual) {
						t.Fatalf("%d rungs, kernels=%v: record %d did not round-trip", c.rungs, on, j)
					}
				}
			})
		}
		if !bytes.Equal(blocks[0], blocks[1]) {
			t.Fatalf("%d rungs: block differs with kernels on and off", c.rungs)
		}
	}
}

func benchKernelMarshal(b *testing.B, on bool) {
	recs := simRecords(b, 2191, 64)
	defer kernels.SetEnabled(kernels.SetEnabled(on))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (colfmt.Codec{}).Marshal(recs); err != nil {
			b.Fatal(err)
		}
	}
}

func benchKernelUnmarshal(b *testing.B, on bool) {
	block := benchBlock(b, simRecords(b, 2191, 64))
	defer kernels.SetEnabled(kernels.SetEnabled(on))
	b.SetBytes(int64(len(block)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (colfmt.Codec{}).Unmarshal(block); err != nil {
			b.Fatal(err)
		}
	}
}

// A 64-record block is what the P×P shuffle cuts: the size at which the
// codec's per-block fixed costs show.
func BenchmarkKernelColumnarMarshalReference(b *testing.B)   { benchKernelMarshal(b, false) }
func BenchmarkKernelColumnarMarshalFast(b *testing.B)        { benchKernelMarshal(b, true) }
func BenchmarkKernelColumnarUnmarshalReference(b *testing.B) { benchKernelUnmarshal(b, false) }
func BenchmarkKernelColumnarUnmarshalFast(b *testing.B)      { benchKernelUnmarshal(b, true) }
