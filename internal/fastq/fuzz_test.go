package fastq

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadPairs: ReadPairs never panics on two hostile mate files, and
// whatever it accepts survives a Writer per mate and a second ReadPairs
// unchanged. The checked-in corpus (testdata/fuzz/FuzzReadPairs) holds a
// valid pair of files, empty ones, a truncated record, mismatched R1/R2
// counts and CRLF line ends; the 1 MB line is generated here.
func FuzzReadPairs(f *testing.F) {
	long := "@r/1\n" + strings.Repeat("A", 1<<20) + "\n+\n" + strings.Repeat("I", 1<<20) + "\n"
	f.Add([]byte(long), []byte(long))
	f.Fuzz(func(t *testing.T, r1, r2 []byte) {
		pairs, err := ReadPairs(bytes.NewReader(r1), bytes.NewReader(r2))
		if err != nil {
			return
		}
		var b1, b2 bytes.Buffer
		w1, w2 := NewWriter(&b1), NewWriter(&b2)
		for i := range pairs {
			if err := w1.Write(&pairs[i].R1); err != nil {
				t.Fatalf("pair %d R1: %v", i, err)
			}
			if err := w2.Write(&pairs[i].R2); err != nil {
				t.Fatalf("pair %d R2: %v", i, err)
			}
		}
		if err := w1.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := w2.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := ReadPairs(bytes.NewReader(b1.Bytes()), bytes.NewReader(b2.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of written mates: %v", err)
		}
		if !reflect.DeepEqual(pairs, again) {
			t.Fatalf("pairs changed over a write/read round trip:\n%+v\n%+v", pairs, again)
		}
	})
}
