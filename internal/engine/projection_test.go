package engine

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
)

// fakeRec is the two-field record type the projection tests store through a
// toy columnar codec: column A and column B, one FieldMask bit each.
type fakeRec struct {
	A int32
	B int32
}

const (
	fakeFieldA FieldMask = 1 << 0
	fakeFieldB FieldMask = 1 << 1
)

// fakeColCodec is a minimal ProjectableSerializer+StatsSerializer: uvarint
// count, uvarint present-column mask, then one 4-bytes/record column per
// present bit (A then B). Like colfmt, a projected encoder writes partial
// blocks — absent columns decode as zeros — and a projected decoder skips
// present columns wholesale, charging them to PrunedBytes.
type fakeColCodec struct {
	mask    FieldMask
	projSet bool
}

const fakeAllFields = fakeFieldA | fakeFieldB

func (c fakeColCodec) effMask() FieldMask {
	if !c.projSet {
		return FieldsAll
	}
	return c.mask
}

func (fakeColCodec) Name() string { return "fakecol" }

func (c fakeColCodec) Project(mask FieldMask) Serializer[fakeRec] {
	return fakeColCodec{mask: c.effMask() & mask, projSet: true}
}

func (c fakeColCodec) Marshal(items []fakeRec) ([]byte, error) {
	present := c.effMask() & fakeAllFields
	out := binary.AppendUvarint(nil, uint64(len(items)))
	out = binary.AppendUvarint(out, uint64(present))
	if present&fakeFieldA != 0 {
		for i := range items {
			out = binary.LittleEndian.AppendUint32(out, uint32(items[i].A))
		}
	}
	if present&fakeFieldB != 0 {
		for i := range items {
			out = binary.LittleEndian.AppendUint32(out, uint32(items[i].B))
		}
	}
	return out, nil
}

func (c fakeColCodec) Unmarshal(data []byte) ([]fakeRec, error) {
	items, _, err := c.UnmarshalStats(data)
	return items, err
}

func (c fakeColCodec) UnmarshalStats(data []byte) ([]fakeRec, DecodeStats, error) {
	var st DecodeStats
	n, hdr := binary.Uvarint(data)
	if hdr <= 0 {
		return nil, st, fmt.Errorf("fakecol: bad count")
	}
	present, ph := binary.Uvarint(data[hdr:])
	if ph <= 0 {
		return nil, st, fmt.Errorf("fakecol: bad present mask")
	}
	hdr += ph
	ncols := 0
	for _, f := range []FieldMask{fakeFieldA, fakeFieldB} {
		if FieldMask(present)&f != 0 {
			ncols++
		}
	}
	if uint64(len(data)-hdr) != uint64(ncols)*4*n {
		return nil, st, fmt.Errorf("fakecol: bad block")
	}
	st.DecodedBytes = int64(hdr)
	items := make([]fakeRec, n)
	cols := []struct {
		field FieldMask
		set   func(i int, v int32)
	}{
		{fakeFieldA, func(i int, v int32) { items[i].A = v }},
		{fakeFieldB, func(i int, v int32) { items[i].B = v }},
	}
	off := hdr
	for _, col := range cols {
		if FieldMask(present)&col.field == 0 {
			continue
		}
		size := 4 * int(n)
		if c.effMask()&col.field == 0 {
			st.PrunedBytes += int64(size)
		} else {
			st.DecodedBytes += int64(size)
			for i := 0; i < int(n); i++ {
				col.set(i, int32(binary.LittleEndian.Uint32(data[off+4*i:])))
			}
		}
		off += size
	}
	return items, st, nil
}

func fakeRecs(n int) []fakeRec {
	out := make([]fakeRec, n)
	for i := range out {
		out[i] = fakeRec{A: int32(i), B: int32(1000 + i)}
	}
	return out
}

// storeFake materializes recs as serialized blocks under codec.
func storeFake(t *testing.T, ctx *Context, recs []fakeRec, codec Serializer[fakeRec]) *Dataset[fakeRec] {
	t.Helper()
	ctx.StoreSerialized = true
	d, err := MapPartitions("store", Parallelize(ctx, recs, 4), codec,
		func(_ int, items []fakeRec) ([]fakeRec, error) { return items, nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Force(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEffectiveSerializerResolution(t *testing.T) {
	if _, ok := effectiveSerializer[fakeRec](nil).(GobCodec[fakeRec]); !ok {
		t.Fatal("nil codec must resolve to gob")
	}
	if _, ok := effectiveSerializer[fakeRec](fakeColCodec{}).(fakeColCodec); !ok {
		t.Fatal("an attached codec must be kept")
	}
}

func TestCountDecodesHeadersOnly(t *testing.T) {
	ctx := NewContext(2)
	d := storeFake(t, ctx, fakeRecs(128), fakeColCodec{})

	ctx.ResetMetrics()
	n, err := Count("count", d)
	if err != nil || n != 128 {
		t.Fatalf("count = %d, %v", n, err)
	}
	countDec := ctx.Metrics().TotalDecodedBytes()
	if ctx.Metrics().TotalPrunedBytes() == 0 {
		t.Fatal("count over a columnar dataset should prune all columns")
	}

	ctx.ResetMetrics()
	if _, err := Collect("collect", d); err != nil {
		t.Fatal(err)
	}
	fullDec := ctx.Metrics().TotalDecodedBytes()
	if countDec >= fullDec {
		t.Fatalf("count decoded %d bytes, full decode %d — count should be header-only", countDec, fullDec)
	}
}

// TestOnlyCallTimeReadsNarrow: the rule in one test. Over stored columnar
// blocks, a CountByKey that declares its key's column prunes the other one
// and returns what the undeclared call returns; a Map — a narrow op, lazy —
// prunes nothing and sees both columns; and the dataset the census read
// narrowly still serves both columns to a later reader.
func TestOnlyCallTimeReadsNarrow(t *testing.T) {
	ctx := NewContext(2)
	d := storeFake(t, ctx, fakeRecs(96), fakeColCodec{})
	key := func(r fakeRec) int { return int(r.A) % 5 }

	ctx.ResetMetrics()
	undeclared, err := CountByKey("census", d, key)
	if err != nil {
		t.Fatal(err)
	}
	if pruned := ctx.Metrics().TotalPrunedBytes(); pruned != 0 {
		t.Fatalf("undeclared census pruned %d bytes", pruned)
	}
	ctx.ResetMetrics()
	declared, err := CountByKey("census", d, key, ReadsOnly(fakeFieldA))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(declared, undeclared) {
		t.Fatalf("declared census = %v, undeclared = %v", declared, undeclared)
	}
	if pruned := ctx.Metrics().TotalPrunedBytes(); pruned != 4*96 {
		t.Fatalf("declared census pruned %d bytes, want column B's %d", pruned, 4*96)
	}

	ctx.ResetMetrics()
	sums, err := Map("sum", d, nil, func(r fakeRec) int32 { return r.A + r.B })
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect("collect-sum", sums)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int32(1000+2*i) {
			t.Fatalf("sum[%d] = %d: the map did not see both columns", i, v)
		}
	}
	if pruned := ctx.Metrics().TotalPrunedBytes(); pruned != 0 {
		t.Fatalf("a narrow op pruned %d bytes", pruned)
	}

	full, err := Collect("collect", d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, fakeRecs(96)) {
		t.Fatal("a full-width read after the narrow census lost a column")
	}
}
