package sam

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/gpf-go/gpf/internal/testutil/allocbudget"
	"github.com/gpf-go/gpf/internal/testutil/fuzzcorpus"
)

// Allocation budget of ReadText. The scanner's 64 KiB buffer is the fixed
// cost; past it a record line costs its struct, its name, one seq+qual
// allocation, its CIGAR and its tag map. Worst ratio seen on the seeds: 4.9
// bytes per byte on the 1 MB line (the scanner's buffer doubling to hold
// it), 66 288 bytes on the shortest; 2 000 short records with four tags each
// measure 9.7. The worst input found by hand, 2 000 nameless records with a
// five-op CIGAR and one empty tag, measures 22.4 (33.3 with the strings.Split
// parser, when the budget was 64); the budget is twice that.
const (
	textPerByte = 48
	textSlack   = 96 << 10
)

// FuzzReadText: ReadText never panics on hostile text, and whatever it
// accepts survives WriteText and a second ReadText unchanged — header and
// records. The checked-in corpus (testdata/fuzz/FuzzReadText) holds a valid
// file, an empty one, a truncated record, QUAL "*", overflowing POS/CIGAR
// columns and CRLF line ends; the 1 MB line is generated here.
func FuzzReadText(f *testing.F) {
	f.Add([]byte("r\t0\t*\t0\t0\t*\t*\t0\t0\t" + strings.Repeat("A", 1<<20) + "\t*\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var h *Header
		var recs []Record
		var err error
		allocbudget.Check(t, len(data), textPerByte, textSlack, func() { h, recs, err = ReadText(bytes.NewReader(data)) })
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, h, recs); err != nil {
			t.Fatalf("WriteText of parsed records: %v", err)
		}
		h2, recs2, err := ReadText(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of written text: %v\n%q", err, buf.Bytes())
		}
		if !reflect.DeepEqual(h, h2) {
			t.Fatalf("header changed over a write/read round trip:\n%+v\n%+v", h, h2)
		}
		if !reflect.DeepEqual(recs, recs2) {
			t.Fatalf("records changed over a write/read round trip:\n%+v\n%+v", recs, recs2)
		}
	})
}

// FuzzReadTextDifferential: ReadText and the strings.Split reader it replaced
// (oracle_test.go) accept and refuse the same inputs with the same error and
// return the same header and records, and WriteText writes the bytes the
// fmt.Fprintf writer wrote. It starts from FuzzReadText's checked-in corpus
// and lines of optional fields with zero to three colons.
func FuzzReadTextDifferential(f *testing.F) {
	fuzzcorpus.Add(f, "FuzzReadText")
	f.Add([]byte("@SQ\tSN:c\tLN:9\nr\t3\tc\t2\t9\t2M\tc\t5\t-1\tAC\t*\tXX\tYY:i\tRG:Z:a:b\tRG:Z:c\t\n"))
	f.Add([]byte("r\t0\t*\t0\t0\t*\t=\t0\t0\t*\tII\t::\tA::\t\t\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, recs, err := ReadText(bytes.NewReader(data))
		wantH, want, wantErr := readTextSplit(bytes.NewReader(data))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("ReadText error %v, oracle %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(h, wantH) {
			t.Fatalf("header %+v, oracle %+v", h, wantH)
		}
		if !reflect.DeepEqual(recs, want) {
			t.Fatalf("records %+v, oracle %+v", recs, want)
		}
		var got, wantText bytes.Buffer
		if err := WriteText(&got, h, recs); err != nil {
			t.Fatal(err)
		}
		if err := writeTextFprintf(&wantText, h, recs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), wantText.Bytes()) {
			t.Fatalf("WriteText wrote %q, oracle %q", got.Bytes(), wantText.Bytes())
		}
	})
}
