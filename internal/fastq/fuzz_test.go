package fastq

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/gpf-go/gpf/internal/testutil/allocbudget"
	"github.com/gpf-go/gpf/internal/testutil/fuzzcorpus"
)

// Allocation budget of ReadPairs over both mates' bytes. Two scanners' 64 KiB
// buffers are the fixed cost; past them a record costs its struct, its name
// and one seq+qual allocation. Worst ratio seen on the seeds: 3.0 bytes per
// byte on the 1 MB lines, 131 264 bytes on the shortest; 2 000 one-base pairs
// measure 11 (27 when each record held four line strings).
const (
	textPerByte = 64
	textSlack   = 160 << 10
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
		var pairs []Pair
		var err error
		allocbudget.Check(t, len(r1)+len(r2), textPerByte, textSlack, func() { pairs, err = ReadPairs(bytes.NewReader(r1), bytes.NewReader(r2)) })
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

// FuzzReadPairsDifferential: ReadPairs and the line-string reader it replaced
// (oracle_test.go) accept and refuse the same mate files with the same error
// and return the same pairs. It starts from FuzzReadPairs's checked-in corpus
// and records with empty reads and quality lines longer and shorter than
// their sequence.
func FuzzReadPairsDifferential(f *testing.F) {
	fuzzcorpus.Add(f, "FuzzReadPairs")
	f.Add([]byte("@a\n\n+\n\n"), []byte("@\n\n+x\n\n"))
	f.Add([]byte("@a\nAC\n+\nIII\n"), []byte("@b\nACG\n+\nII\n"))
	f.Fuzz(func(t *testing.T, r1, r2 []byte) {
		pairs, err := ReadPairs(bytes.NewReader(r1), bytes.NewReader(r2))
		want, wantErr := readPairsSplit(bytes.NewReader(r1), bytes.NewReader(r2))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("ReadPairs error %v, oracle %v", err, wantErr)
		}
		if !reflect.DeepEqual(pairs, want) {
			t.Fatalf("pairs %+v, oracle %+v", pairs, want)
		}
	})
}
