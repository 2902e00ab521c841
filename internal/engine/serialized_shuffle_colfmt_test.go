package engine_test

import (
	"fmt"
	"testing"

	"github.com/gpf-go/gpf/internal/colfmt"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/sam"
)

// TestSerializedShufflePrunesEveryBlock: a serialized shuffle's partition is
// several columnar blocks, and a coord-only read decodes every one of them
// through the projection: the decoded and pruned bytes add up to exactly the
// bytes stored, every block prunes its seq and qual columns, the census
// matches the full-width one, and the blocks are the buckets the map side
// wrote.
func TestSerializedShufflePrunesEveryBlock(t *testing.T) {
	const n, in, out = 400, 4, 2
	recs := make([]sam.Record, n)
	for i := range recs {
		seq := make([]byte, 50+i%30)
		qual := make([]byte, len(seq))
		for j := range seq {
			seq[j] = "ACGT"[(i*3+j)%4]
			qual[j] = byte(33 + (i+j)%40)
		}
		recs[i] = sam.Record{Name: fmt.Sprintf("r%04d", i), RefID: int32(i % 3), Pos: int32(i * 13 % 997),
			Cigar: sam.Cigar{{Len: len(seq), Op: 'M'}}, Seq: seq, Qual: qual}
	}
	ctx := engine.NewContext(2)
	ctx.StoreSerialized = true
	d := engine.WithCodec(engine.Parallelize(ctx, recs, in), engine.Serializer[sam.Record](colfmt.Codec{}))
	sh, err := engine.PartitionBy("pb", d, out, func(r sam.Record) int { return int(r.Pos) })
	if err != nil {
		t.Fatal(err)
	}
	var written int64
	for _, s := range ctx.Metrics().Stages {
		if s.Name == "pb/map" {
			for _, tk := range s.Tasks {
				written += tk.ShuffleWriteBytes
			}
		}
	}
	stored := sh.MemoryBytes()
	if stored != written {
		t.Fatalf("MemoryBytes = %d, want the %d shuffle-write bytes", stored, written)
	}

	key := func(r sam.Record) int { return int(r.RefID)*1000 + int(r.Pos)%7 }
	full, err := engine.CountByKey("full", sh, key)
	if err != nil {
		t.Fatal(err)
	}
	ctx.ResetMetrics()
	coords, err := engine.CountByKey("coords", sh, key, engine.ReadsOnly(colfmt.FieldCoord))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(coords) != fmt.Sprint(full) {
		t.Fatalf("coord-only census %v, full-width %v", coords, full)
	}
	m := ctx.Metrics()
	dec, pruned := m.TotalDecodedBytes(), m.TotalPrunedBytes()
	if dec+pruned != stored {
		t.Fatalf("decoded %d + pruned %d bytes, want the %d stored", dec, pruned, stored)
	}
	// Every bucket, re-encoded here and read coord-only, prunes what the
	// stored partition's blocks pruned in all.
	var want int64
	coordOnly := colfmt.Codec{}.Project(colfmt.FieldCoord).(engine.StatsSerializer[sam.Record])
	for mp := range in {
		chunk := recs[mp*n/in : (mp+1)*n/in]
		for r := range out {
			var bucket []sam.Record
			for _, rec := range chunk {
				if int(rec.Pos)%out == r {
					bucket = append(bucket, rec)
				}
			}
			block, err := colfmt.Codec{}.Marshal(bucket)
			if err != nil {
				t.Fatal(err)
			}
			_, st, err := coordOnly.UnmarshalStats(block)
			if err != nil {
				t.Fatal(err)
			}
			want += st.PrunedBytes
		}
	}
	if pruned != want {
		t.Fatalf("coord-only read pruned %d bytes, want %d: not every block was pruned", pruned, want)
	}
}
