package colfmt_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"github.com/gpf-go/gpf/internal/colfmt"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/testutil/allocbudget"
)

// fuzzSeedBlocks are the deterministic seed inputs shared by the fuzz target
// and the checked-in corpus under testdata/fuzz/FuzzColumnarRoundTrip (see
// TestFuzzSeedCorpusInSync): valid blocks of characteristic shapes, a few
// corrupt prefixes, the densest legal block, and counts that lie.
func fuzzSeedBlocks(tb testing.TB) [][]byte {
	mustMarshal := func(recs []sam.Record) []byte {
		block, err := colfmt.Codec{}.Marshal(recs)
		if err != nil {
			tb.Fatalf("seed marshal: %v", err)
		}
		return block
	}
	r := rand.New(rand.NewSource(1701))
	tags := binary.AppendUvarint(nil, 1<<63) // one record claiming 2^63 tags
	ops := binary.AppendUvarint(nil, 1<<20)  // one record claiming 2^20 cigar ops
	seeds := [][]byte{
		mustMarshal(nil),
		mustMarshal([]sam.Record{{}}),
		mustMarshal([]sam.Record{{
			Name: "read1", Flag: sam.FlagPaired, RefID: 0, Pos: 100, MapQ: 60,
			Cigar: sam.Cigar{{Len: 4, Op: 'M'}}, MateRef: 0, MatePos: 300, TempLen: 204,
			Seq: []byte("ACGT"), Qual: []byte("####"), Tags: map[string]string{"RG": "rg0"},
		}}),
		mustMarshal([]sam.Record{
			{Name: "n", Seq: []byte("NNNN"), Qual: []byte{0, 0, 0, 0}},
			{Flag: sam.FlagUnmapped, RefID: -1, MateRef: -1},
		}),
		mustMarshal(randBatch(r, 12)),
		{},                // empty input
		{'G', 'c', 1},     // header only
		{'G', 'c', 2, 0},  // bad version
		{'X', 'x', 1, 99}, // bad magic
		append(binary.AppendUvarint([]byte{'G', 'c', 1}, 1<<17), 0), // 2^17 records, no columns
		// The densest legal block: 64 records in a 64-byte flag column.
		append([]byte{'G', 'c', 1, 64, byte(colfmt.FieldFlag), 64}, make([]byte, 64)...),
		append(binary.AppendUvarint(binary.AppendUvarint([]byte{'G', 'c', 1, 1}, uint64(colfmt.FieldTags)), uint64(len(tags))), tags...),
		append([]byte{'G', 'c', 1, 1, byte(colfmt.FieldCigar), byte(len(ops))}, ops...),
	}
	return seeds
}

// Allocation budget of FuzzColumnarRoundTrip. A flag-only block legally
// decodes n bytes into n 136-byte records, so the budget is a record per
// input byte with room to spare. Worst ratio seen on the seeds: 135 bytes per
// byte, on the 64-record flag-only block.
const (
	colPerByte = 192
	colSlack   = 4 << 10
)

// FuzzColumnarRoundTrip: any input the decoder accepts must re-encode
// canonically — Marshal(Unmarshal(x)) decodes back to the same records — and
// no input may panic or allocate past the budget above.
func FuzzColumnarRoundTrip(f *testing.F) {
	for _, seed := range fuzzSeedBlocks(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []sam.Record
		var err error
		allocbudget.Check(t, len(data), colPerByte, colSlack, func() {
			recs, err = colfmt.Codec{}.Unmarshal(data)
		})
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		block, err := colfmt.Codec{}.Marshal(recs)
		if err != nil {
			t.Fatalf("re-marshal of accepted input failed: %v", err)
		}
		again, err := colfmt.Codec{}.Unmarshal(block)
		if err != nil {
			t.Fatalf("decode of canonical re-encoding failed: %v", err)
		}
		if !reflect.DeepEqual(recs, again) {
			t.Fatalf("round-trip through canonical encoding changed records")
		}
	})
}

// corpusDir is the checked-in seed corpus location `go test -fuzz` merges
// with the f.Add seeds.
func corpusDir() string {
	return filepath.Join("testdata", "fuzz", "FuzzColumnarRoundTrip")
}

// corpusEntry renders one seed in the go-fuzz v1 corpus file format.
func corpusEntry(seed []byte) string {
	return fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.QuoteToASCII(string(seed)))
}

// TestFuzzSeedCorpusInSync verifies the checked-in corpus matches
// fuzzSeedBlocks. Regenerate with GPF_WRITE_FUZZ_CORPUS=1 go test
// ./internal/colfmt -run TestFuzzSeedCorpusInSync.
func TestFuzzSeedCorpusInSync(t *testing.T) {
	seeds := fuzzSeedBlocks(t)
	if os.Getenv("GPF_WRITE_FUZZ_CORPUS") != "" {
		if err := os.MkdirAll(corpusDir(), 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			name := filepath.Join(corpusDir(), fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(corpusEntry(seed)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, seed := range seeds {
		name := filepath.Join(corpusDir(), fmt.Sprintf("seed-%02d", i))
		got, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("corpus file missing (regenerate with GPF_WRITE_FUZZ_CORPUS=1): %v", err)
		}
		if string(got) != corpusEntry(seed) {
			t.Fatalf("corpus file %s out of sync with fuzzSeedBlocks", name)
		}
	}
}
