// Fixture for gpflint over the columnar codec surface: bufalloc is scoped to
// internal/colfmt (this fixture loads under a package path inside it), and
// codecerr watches the colfmt serializer calls like every other
// module-internal codec. The columnar decoder runs once per partition per
// stage on the cache and shuffle read paths, so both invariants bind here.
package colfmtcodec

import (
	"bytes"

	"github.com/gpf-go/gpf/internal/bufpool"
	"github.com/gpf-go/gpf/internal/colfmt"
	"github.com/gpf-go/gpf/internal/sam"
)

// MarshalStaged allocates its staging buffer instead of pooling it.
func MarshalStaged(recs []sam.Record) ([]byte, error) {
	var buf bytes.Buffer
	block, err := colfmt.Codec{}.Marshal(recs)
	if err != nil {
		return nil, err
	}
	buf.Write(block) // bytes.Buffer is not a watched codec surface
	return buf.Bytes(), nil
}

// DecodeColumns stages through fresh buffers in a decode hot path.
func DecodeColumns(block []byte) ([]sam.Record, error) {
	scratch := bytes.NewBuffer(nil)
	spare := new(bytes.Buffer)
	_, _ = scratch, spare
	return colfmt.Codec{}.Unmarshal(block)
}

// droppedErrors exercises codecerr over the columnar serializer surface.
func droppedErrors(recs []sam.Record, block []byte) {
	colfmt.Codec{}.Marshal(recs) // want "error return of colfmt.Marshal dropped"

	_, _ = colfmt.Codec{}.Unmarshal(block) // want "error return of colfmt.Unmarshal dropped"

	coords := colfmt.Codec{}.Project(colfmt.FieldCoord)
	coords.Unmarshal(block) // want "error return of engine.Unmarshal dropped"
}

// MarshalPooled is the sanctioned pattern: scratch from internal/bufpool,
// errors propagated.
func MarshalPooled(recs []sam.Record) ([]byte, error) {
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	block, err := colfmt.Codec{}.Marshal(recs)
	if err != nil {
		return nil, err
	}
	if _, err := buf.Write(block); err != nil {
		return nil, err
	}
	return bufpool.Bytes(buf), nil
}

// projectionHelper is not a hot-path function name: staging buffers are
// allowed outside the serializer entry points.
func projectionHelper() *bytes.Buffer {
	return bytes.NewBuffer(nil)
}
