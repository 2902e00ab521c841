package colfmt_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/gpf-go/gpf/internal/colfmt"
	"github.com/gpf-go/gpf/internal/compress"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/sam"
)

// randRecord synthesizes one record exercising every column shape: empty and
// non-empty names, unmapped reads, N/lowercase bases, out-of-range quality
// bytes, empty and multi-key tag maps. Empty slices/maps are emitted as nil —
// the codec's canonical form (a zero-length field decodes to nil).
func randRecord(r *rand.Rand) sam.Record {
	const bases = "ACGT"
	rec := sam.Record{
		Flag:    uint16(r.Intn(1 << 12)),
		RefID:   int32(r.Intn(4)) - 1, // includes -1 (unmapped)
		Pos:     int32(r.Intn(1 << 20)),
		MapQ:    uint8(r.Intn(61)),
		MateRef: int32(r.Intn(4)) - 1,
		MatePos: int32(r.Intn(1<<20)) - 500,
		TempLen: int32(r.Intn(1000)) - 500,
	}
	if r.Intn(10) > 0 {
		name := make([]byte, 1+r.Intn(24))
		for i := range name {
			name[i] = byte('!' + r.Intn(90))
		}
		rec.Name = string(name)
	}
	if n := r.Intn(5); n > 0 {
		ops := "MIDNSHP=X"
		rec.Cigar = make(sam.Cigar, n)
		for i := range rec.Cigar {
			rec.Cigar[i] = sam.CigarOp{Len: 1 + r.Intn(100), Op: ops[r.Intn(len(ops))]}
		}
	}
	if l := r.Intn(120); l > 0 {
		rec.Seq = make([]byte, l)
		rec.Qual = make([]byte, l)
		for i := 0; i < l; i++ {
			switch r.Intn(20) {
			case 0:
				rec.Seq[i] = 'N'
			case 1:
				rec.Seq[i] = "acgtnRYK*"[r.Intn(9)]
			default:
				rec.Seq[i] = bases[r.Intn(4)]
			}
			rec.Qual[i] = byte(33 + r.Intn(41))
		}
		if r.Intn(20) == 0 {
			// Out-of-range quality byte: forces the raw qual fallback.
			rec.Qual[r.Intn(l)] = byte(200 + r.Intn(56))
		}
	}
	if n := r.Intn(4); n > 0 && r.Intn(3) > 0 {
		rec.Tags = make(map[string]string, n)
		tags := []string{"RG", "LB", "NM", "MD", "XA"}
		for i := 0; i < n; i++ {
			v := make([]byte, r.Intn(8))
			for j := range v {
				v[j] = byte('0' + r.Intn(75))
			}
			rec.Tags[tags[r.Intn(len(tags))]] = string(v)
		}
	}
	return rec
}

func randBatch(r *rand.Rand, n int) []sam.Record {
	recs := make([]sam.Record, n)
	for i := range recs {
		recs[i] = randRecord(r)
	}
	return recs
}

// TestRoundTripRandomized: encode→decode round-trips randomized batches
// exactly, including the empty batch.
func TestRoundTripRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 50; trial++ {
		recs := randBatch(r, r.Intn(80))
		block, err := colfmt.Codec{}.Marshal(recs)
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		got, err := colfmt.Codec{}.Unmarshal(block)
		if err != nil {
			t.Fatalf("trial %d: unmarshal: %v", trial, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("trial %d: got %d records, want %d", trial, len(got), len(recs))
		}
		for i := range recs {
			if !reflect.DeepEqual(got[i], recs[i]) {
				t.Fatalf("trial %d: record %d mismatch:\n got %+v\nwant %+v", trial, i, got[i], recs[i])
			}
		}
	}
}

// TestRoundTripEdgeCases covers the canonicalization contract: empty (but
// non-nil) seq/qual/tags decode as nil, and re-encoding the decoded batch is
// byte-identical (the canonical form is a fixed point).
func TestRoundTripEdgeCases(t *testing.T) {
	recs := []sam.Record{
		{}, // all-zero record
		{Name: "", Flag: sam.FlagUnmapped, RefID: -1, Pos: 0, MateRef: -1, Seq: []byte{}, Qual: []byte{}, Tags: map[string]string{}},
		{Name: "q", Seq: []byte("N"), Qual: []byte{0}, Cigar: sam.Cigar{{Len: 1, Op: 'M'}}},
		{Name: "multi", Seq: []byte("ACGTNNACGT"), Qual: []byte("##########"),
			Tags: map[string]string{"RG": "rg1", "LB": "", "": "emptykey"}},
		{Pos: 1 << 30, MatePos: -(1 << 30), TempLen: -1},
	}
	block, err := colfmt.Codec{}.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := colfmt.Codec{}.Unmarshal(block)
	if err != nil {
		t.Fatal(err)
	}
	// Empty slices/maps come back nil.
	if dec[1].Seq != nil || dec[1].Qual != nil || dec[1].Tags != nil {
		t.Fatalf("empty fields should decode to nil, got %+v", dec[1])
	}
	// The decode is a fixed point: re-encoding is byte-identical.
	block2, err := colfmt.Codec{}.Marshal(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(block, block2) {
		t.Fatalf("re-encoded block differs: %d vs %d bytes", len(block), len(block2))
	}
	dec2, err := colfmt.Codec{}.Unmarshal(block2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, dec2) {
		t.Fatal("decode of re-encoded block differs")
	}
}

// TestStatsFullDecode: an unprojected decode touches every byte and prunes
// none.
func TestStatsFullDecode(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	recs := randBatch(r, 40)
	block, err := colfmt.Codec{}.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := colfmt.Codec{}.UnmarshalStats(block)
	if err != nil {
		t.Fatal(err)
	}
	if st.DecodedBytes != int64(len(block)) || st.PrunedBytes != 0 {
		t.Fatalf("full decode stats = %+v, want decoded %d / pruned 0", st, len(block))
	}
}

// TestProjectionDecodesSubset: a coordinate projection materializes only
// RefID/Pos, zeroes the rest, prunes the heavy columns, and accounts every
// block byte as either decoded or pruned.
func TestProjectionDecodesSubset(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	recs := randBatch(r, 60)
	block, err := colfmt.Codec{}.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	proj, ok := colfmt.Codec{}.Project(colfmt.FieldCoord).(engine.StatsSerializer[sam.Record])
	if !ok {
		t.Fatal("projected codec lost UnmarshalStats")
	}
	got, st, err := proj.UnmarshalStats(block)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].RefID != recs[i].RefID || got[i].Pos != recs[i].Pos {
			t.Fatalf("record %d coords: got (%d,%d) want (%d,%d)",
				i, got[i].RefID, got[i].Pos, recs[i].RefID, recs[i].Pos)
		}
		if got[i].Name != "" || got[i].Seq != nil || got[i].Qual != nil || got[i].Tags != nil || got[i].Cigar != nil {
			t.Fatalf("record %d: pruned fields not zero: %+v", i, got[i])
		}
	}
	if st.PrunedBytes <= 0 {
		t.Fatalf("coordinate projection pruned nothing: %+v", st)
	}
	if st.DecodedBytes+st.PrunedBytes != int64(len(block)) {
		t.Fatalf("stats don't cover the block: %+v vs %d bytes", st, len(block))
	}
	if st.DecodedBytes >= int64(len(block)) {
		t.Fatalf("projected decode should touch fewer bytes than the block: %+v", st)
	}

	// The zero mask decodes only headers: right count, zero records.
	zero := colfmt.Codec{}.Project(0)
	hdr, err := zero.Unmarshal(block)
	if err != nil {
		t.Fatal(err)
	}
	if len(hdr) != len(recs) {
		t.Fatalf("zero-mask decode: got %d records, want %d", len(hdr), len(recs))
	}
	var zrec sam.Record
	for i := range hdr {
		if !reflect.DeepEqual(hdr[i], zrec) {
			t.Fatalf("zero-mask record %d not zero: %+v", i, hdr[i])
		}
	}
}

// TestProjectionComposes: Project masks intersect.
func TestProjectionComposes(t *testing.T) {
	c := colfmt.Codec{}.Project(colfmt.FieldCoord | colfmt.FieldFlag)
	p, ok := c.(engine.ProjectableSerializer[sam.Record])
	if !ok {
		t.Fatal("projected codec lost Project")
	}
	c2 := p.Project(colfmt.FieldFlag | colfmt.FieldSeq) // intersection: flag only
	recs := []sam.Record{{Flag: 99, RefID: 3, Pos: 77, Seq: []byte("ACGT"), Qual: []byte("####")}}
	block, err := colfmt.Codec{}.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.Unmarshal(block)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Flag != 99 || got[0].RefID != 0 || got[0].Pos != 0 || got[0].Seq != nil {
		t.Fatalf("intersected projection decoded wrong fields: %+v", got[0])
	}
}

// TestCorruptionDoesNotPanic: every truncation and a sweep of byte flips must
// fail cleanly (or decode consistently), never panic or over-allocate.
func TestCorruptionDoesNotPanic(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	recs := randBatch(r, 20)
	block, err := colfmt.Codec{}.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= len(block); i++ {
		_, _ = colfmt.Codec{}.Unmarshal(block[:i]) //nolint — error expected, must not panic
	}
	for trial := 0; trial < 500; trial++ {
		mut := append([]byte(nil), block...)
		mut[r.Intn(len(mut))] ^= byte(1 + r.Intn(255))
		_, _ = colfmt.Codec{}.Unmarshal(mut)
	}
}

// identityRecords is the identity MapPartitions body used to materialize a
// dataset under a codec.
func identityRecords(_ int, recs []sam.Record) ([]sam.Record, error) { return recs, nil }

// runCoordCensus materializes recs as serialized blocks under codec (the
// columnar codec, or the row-wise field codec as the whole-block side) and
// runs a coordinate-only census declaring ReadsOnly(FieldCoord), returning
// the census result and the session metrics.
func runCoordCensus(t *testing.T, recs []sam.Record, codec engine.Serializer[sam.Record]) (map[int]int, engine.Metrics) {
	t.Helper()
	ctx := engine.NewContext(4)
	ctx.StoreSerialized = true
	ds := engine.Parallelize(ctx, recs, 8)
	stored, err := engine.MapPartitions("store", ds, codec, identityRecords)
	if err != nil {
		t.Fatal(err)
	}
	if err := stored.Force(); err != nil {
		t.Fatal(err)
	}
	counts, err := engine.CountByKey("census", stored, func(r sam.Record) int {
		return int(r.RefID)<<16 | int(r.Pos>>10)
	}, engine.ReadsOnly(colfmt.FieldCoord))
	if err != nil {
		t.Fatal(err)
	}
	return counts, ctx.Metrics()
}

// TestCoordCensusDecodesFewerBytesThanGob is the columnar acceptance
// criterion: a coordinate-only stage over columnar-stored records decodes
// strictly fewer bytes than over a row codec (stored and decoded whole),
// prunes a positive byte volume, and produces the identical census.
func TestCoordCensusDecodesFewerBytesThanGob(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	recs := randBatch(r, 3000)
	colCounts, colM := runCoordCensus(t, recs, colfmt.Codec{})
	gobCounts, gobM := runCoordCensus(t, recs, compress.FieldSAMCodec{})
	if !reflect.DeepEqual(colCounts, gobCounts) {
		t.Fatal("columnar and row census disagree")
	}
	colDec, gobDec := colM.TotalDecodedBytes(), gobM.TotalDecodedBytes()
	if colDec >= gobDec {
		t.Fatalf("columnar decoded %d bytes, row %d — projection should decode strictly fewer", colDec, gobDec)
	}
	if pruned := colM.TotalPrunedBytes(); pruned <= 0 {
		t.Fatalf("columnar census pruned %d bytes, want > 0", pruned)
	}
	if gobM.TotalPrunedBytes() != 0 {
		t.Fatalf("row path cannot prune, got %d", gobM.TotalPrunedBytes())
	}
}

// TestProjectionDeterminism: the projected columnar census is deterministic
// across repeated runs and identical to the row-codec path. CI runs this
// under -race.
func TestProjectionDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	recs := randBatch(r, 1500)
	first, _ := runCoordCensus(t, recs, colfmt.Codec{})
	for i := 0; i < 3; i++ {
		again, _ := runCoordCensus(t, recs, colfmt.Codec{})
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("columnar census differs on rerun %d", i)
		}
	}
	row, _ := runCoordCensus(t, recs, compress.FieldSAMCodec{})
	if !reflect.DeepEqual(first, row) {
		t.Fatal("columnar census differs from row-codec baseline")
	}
}

// TestPartialBlockEncode: Marshal writes every column whatever Project said;
// the decoder still accepts a block carrying a subset of the columns (here a
// hand-built v1 block holding only flag and coord), reading the present
// fields back intact and the absent ones as zero values.
func TestPartialBlockEncode(t *testing.T) {
	recs := randBatch(rand.New(rand.NewSource(12)), 80)
	full, err := colfmt.Codec{}.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	narrow := colfmt.Codec{}.Project(colfmt.FieldCoord | colfmt.FieldFlag)
	if wide, err := narrow.Marshal(recs); err != nil || !bytes.Equal(wide, full) {
		t.Fatalf("projected Marshal wrote %d bytes (err %v), want the full block's %d", len(wide), err, len(full))
	}

	partial := []byte{'G', 'c', 1, // magic, version
		2, // record count
		byte(colfmt.FieldFlag | colfmt.FieldCoord), // present mask
		2, 4, 16, // flag column
		4, 0, 20, 2, 13, // coord column: zigzag (ΔRefID, ΔPos) = (0, +10), (+1, -7)
	}
	want := []sam.Record{{Flag: 4, RefID: 0, Pos: 10}, {Flag: 16, RefID: 1, Pos: 3}}
	got, err := colfmt.Codec{}.Unmarshal(partial)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("full decoder over a partial block: %+v, %v; want %+v", got, err, want)
	}
	// A projected decoder prunes only what the block actually carries (flag,
	// here) and never errors on absent columns.
	want[0].Flag, want[1].Flag = 0, 0
	got, err = colfmt.Codec{}.Project(colfmt.FieldCoord).Unmarshal(partial)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("coord decoder over a partial block: %+v, %v; want %+v", got, err, want)
	}
}

// TestQualColumnTrailingBytesRefused: a qual-only block whose Huffman column
// carries one byte after its EOF is refused, naming the column and the cause.
func TestQualColumnTrailingBytesRefused(t *testing.T) {
	col, err := compress.AppendQualColumn(nil, 1, func(int) []byte { return []byte("IIHH") })
	if err != nil {
		t.Fatal(err)
	}
	block := binary.AppendUvarint([]byte{'G', 'c', 1, 1}, uint64(colfmt.FieldQual)) // one record, qual only
	block = binary.AppendUvarint(block, uint64(len(col)+1))
	_, err = colfmt.Codec{}.Unmarshal(append(append(block, col...), 0))
	if err == nil || !strings.Contains(err.Error(), "column 7: compress: 1 trailing bytes after") {
		t.Fatalf("qual column with a byte past its EOF: err %v", err)
	}
}
