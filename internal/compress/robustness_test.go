package compress

import (
	"reflect"
	"testing"
	"testing/quick"

	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/testutil/allocbudget"
)

// Unmarshal must never panic on arbitrary bytes — corrupted shuffle blocks
// surface as errors, not crashes.
func TestUnmarshalRobustness(t *testing.T) {
	f := func(data []byte) bool {
		if _, err := (GPFPairCodec{}).Unmarshal(data); err == nil && len(data) == 0 {
			return false // empty input cannot be a valid block
		}
		FieldPairCodec{}.Unmarshal(data)
		FieldSAMCodec{}.Unmarshal(data)
		DecodeSeqQualBlock(data)
		DecodeQualBlock(data, []int{4})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Allocation budget of FuzzFieldCodecs, per codec. The record count is
// checked against two payload bytes per pair, so the pair slice, 128 bytes a
// pair, may take 64 bytes per input byte before the records run out; the GPF
// codec's seq/qual block adds four slice headers and four lengths per pair.
// Worst ratio seen: 25 bytes per byte on the corpus (the 32 empty field-codec
// pairs), 74 on an input a fuzzing run found; 432 bytes on the shortest
// inputs.
const (
	fieldPerByte = 96
	fieldSlack   = 1 << 10
)

// FuzzFieldCodecs reads every input with the three row codecs: each decodes
// it or errors within the budget above, and whatever it accepts survives
// Marshal and a second Unmarshal unchanged. The checked-in corpus
// (testdata/fuzz/FuzzFieldCodecs) holds a block of each codec, an empty input,
// zero records, a trailing byte, a flag past 16 bits, and lengths that lie: a
// 2^17-record count, a 2^24-byte sequence, 2^20 cigar ops and 2^18 tags, each
// with nothing behind it.
func FuzzFieldCodecs(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRowCodec[fastq.Pair](t, FieldPairCodec{}, data)
		checkRowCodec[fastq.Pair](t, GPFPairCodec{}, data)
		checkRowCodec[sam.Record](t, FieldSAMCodec{}, data)
	})
}

// checkRowCodec decodes data with codec within the budget and, when the
// codec accepts it, holds the records to a marshal/unmarshal round trip.
func checkRowCodec[T any](t *testing.T, codec engine.Serializer[T], data []byte) {
	t.Helper()
	var recs []T
	var err error
	allocbudget.Check(t, len(data), fieldPerByte, fieldSlack, func() { recs, err = codec.Unmarshal(data) })
	if err != nil {
		return
	}
	block, err := codec.Marshal(recs)
	if err != nil {
		t.Fatalf("%T: re-marshal of an accepted block: %v", codec, err)
	}
	again, err := codec.Unmarshal(block)
	if err != nil || !reflect.DeepEqual(recs, again) {
		t.Fatalf("%T: accepted block changed over a marshal/unmarshal round trip (err %v)", codec, err)
	}
}
