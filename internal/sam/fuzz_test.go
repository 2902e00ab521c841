package sam

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/gpf-go/gpf/internal/testutil/allocbudget"
)

// Allocation budget of ReadText. The scanner's 64 KiB buffer is the fixed
// cost; past it a record line costs its struct, strings and tag map. Worst
// ratio seen on the seeds: 6.0 bytes per byte on the 1 MB line, 66 576
// bytes on the shortest; 2 000 short records with four tags each measured
// 21.
const (
	textPerByte = 64
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
