package engine

import (
	"testing"
	"testing/quick"

	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/sam"
)

func TestGobCodecRoundTrip(t *testing.T) {
	type item struct{ A, B int }
	items := []item{{1, 2}, {3, 4}}
	enc, err := GobCodec[item]{}.Marshal(items)
	if err != nil {
		t.Fatal(err)
	}
	back, err := GobCodec[item]{}.Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1].B != 4 {
		t.Fatalf("decoded %v", back)
	}
	if _, err := (GobCodec[int]{}).Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Fatal("corrupt gob data should error")
	}
}

// TestGobCodecRobustness: Unmarshal must never panic on arbitrary bytes —
// corrupted shuffle blocks surface as errors, not crashes.
func TestGobCodecRobustness(t *testing.T) {
	f := func(data []byte) bool {
		GobCodec[fastq.Pair]{}.Unmarshal(data)
		GobCodec[sam.Record]{}.Unmarshal(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
