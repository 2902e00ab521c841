// Fixture for gpflint/codecerr: dropped errors from codec/serializer calls.
// Loaded under a neutral package path — the analyzer is scoped by the callee
// (module-internal or stdlib-encoding declarations), not by the package
// under analysis.
package codecerr

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"io"

	"github.com/gpf-go/gpf/internal/compress"
	"github.com/gpf-go/gpf/internal/sam"
)

func positives(recs []sam.Record, buf *bytes.Buffer, w io.Writer) {
	codec := compress.FieldSAMCodec{}
	codec.Marshal(recs) // want "error return of compress.Marshal dropped"

	_, _ = codec.Marshal(recs) // want "error return of compress.Marshal dropped"

	gob.NewEncoder(buf).Encode(recs) // want "error return of gob.Encode dropped"

	var out []sam.Record
	defer gob.NewDecoder(buf).Decode(&out) // want "error return of gob.Decode dropped"
}

func negatives(recs []sam.Record, buf *bytes.Buffer, w io.Writer) error {
	codec := compress.FieldSAMCodec{}

	// Consumed errors are the point.
	block, err := codec.Marshal(recs)
	if err != nil {
		return err
	}
	if _, err := codec.Unmarshal(block); err != nil {
		return err
	}

	// Non-codec stdlib writers (bufio, io) are deliberately out of scope:
	// this analyzer watches serialization surfaces, not general errcheck.
	bw := bufio.NewWriter(w)
	bw.WriteString("header\n")
	defer bw.Flush()

	// Suppression with a reason.
	//lint:ignore gpflint/codecerr fixture exercises the suppression path
	codec.Marshal(recs)
	return nil
}
