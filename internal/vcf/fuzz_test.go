package vcf

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/gpf-go/gpf/internal/testutil/allocbudget"
)

// Allocation budget of Read. The scanner's 64 KiB buffer is the fixed cost;
// past it a record line costs its struct and strings. Worst ratio seen on
// the seeds: 5.0 bytes per byte on the 1 MB line, 66 264 bytes on the
// shortest; 2 000 records of 16 bytes measured 31.
const (
	textPerByte = 64
	textSlack   = 96 << 10
)

// FuzzRead: Read never panics on hostile text, and whatever it accepts
// survives Write and a second Read: the contig dictionary and the records,
// QUAL compared at the two decimals Write keeps. The checked-in corpus
// (testdata/fuzz/FuzzRead) holds a valid file, an empty one, a truncated
// record, QUAL ".", an overflowing POS and CRLF line ends; the 1 MB line is
// generated here.
func FuzzRead(f *testing.F) {
	f.Add([]byte("chr1\t5\t.\tA\t" + strings.Repeat("T", 1<<20) + "\t30\tPASS\t.\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var h *Header
		var recs []Record
		var err error
		allocbudget.Check(t, len(data), textPerByte, textSlack, func() { h, recs, err = Read(bytes.NewReader(data)) })
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, h, recs); err != nil {
			t.Fatalf("Write of parsed records: %v", err)
		}
		h2, recs2, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of written text: %v\n%q", err, buf.Bytes())
		}
		if !reflect.DeepEqual(h.Contigs, h2.Contigs) {
			t.Fatalf("contigs changed over a write/read round trip:\n%+v\n%+v", h.Contigs, h2.Contigs)
		}
		for i := range recs {
			q, err := strconv.ParseFloat(fmt.Sprintf("%.2f", recs[i].Qual), 64)
			if err != nil {
				t.Fatalf("record %d: QUAL %v does not survive Write's format: %v", i, recs[i].Qual, err)
			}
			recs[i].Qual = q
		}
		if !reflect.DeepEqual(recs, recs2) {
			t.Fatalf("records changed over a write/read round trip:\n%+v\n%+v", recs, recs2)
		}
	})
}
