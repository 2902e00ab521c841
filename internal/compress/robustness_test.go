package compress

import (
	"testing"
	"testing/quick"
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
