package colfmt_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"github.com/gpf-go/gpf/internal/colfmt"
	"github.com/gpf-go/gpf/internal/sam"
)

// goldenColumnarBlocks is the sha256 of every block goldenBatches marshals to,
// each followed by the block of its decode re-encoded, length-prefixed. It was
// computed at the commit before the seq/qual column coders moved into
// compress: any change to the v1 bytes — shuffle blocks, stored partitions —
// shows here.
const goldenColumnarBlocks = "7aa632630379d0ebb4dbe6aec2b0f9df22c959c08f62240e5577ce5d6b584dd9"

// goldenBatches is a fixed set covering every seq/qual shape the columns
// carry: the empty batch, seeded random batches (N, lowercase and IUPAC
// bases, raw-mode quality bytes), QUAL "*" beside a sequence, quality bytes 0
// and 127..255, and every byte value as a base.
func goldenBatches() [][]sam.Record {
	r := rand.New(rand.NewSource(2501))
	allBytes := make([]byte, 256)
	for i := range allBytes {
		allBytes[i] = byte(i)
	}
	batches := [][]sam.Record{
		nil,
		{{}},
		{
			{Name: "iupac", Seq: []byte("ACGTNRYKMSWBDHVN"), Qual: []byte("IIII#IIIIIIIIII#")},
			{Name: "lower", Seq: []byte("acgtnACGTn"), Qual: []byte("##IIIIII5#")},
			{Name: "qual*", Seq: []byte("ACGTNACGT")},
			{Name: "q0", Seq: []byte("ACGT"), Qual: []byte{'I', 0, 'I', 'I'}},
			{Name: "short-qual", Seq: []byte("ACGTAC"), Qual: []byte("II")},
		},
		{{Name: "raw", Seq: []byte("ACGTACGT"), Qual: []byte{40, 127, 128, 200, 254, 255, 0, 33}}},
		{{Name: "every-base", Seq: allBytes, Qual: allBytes}},
	}
	for _, n := range []int{1, 7, 64, 300} {
		batches = append(batches, randBatch(r, n))
	}
	return batches
}

// TestColumnarBlocksGolden pins colfmt.Codec.Marshal's bytes, and those of
// re-encoding each decode, to a constant, and checks that every block is
// allocated at its exact size: a serialized shuffle stores the blocks it
// fetched, so spare capacity would be retained with them.
func TestColumnarBlocksGolden(t *testing.T) {
	h := sha256.New()
	var tmp [binary.MaxVarintLen64]byte
	write := func(block []byte) {
		h.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(block)))])
		h.Write(block)
	}
	for bi, recs := range goldenBatches() {
		block, err := colfmt.Codec{}.Marshal(recs)
		if err != nil {
			t.Fatalf("batch %d: marshal: %v", bi, err)
		}
		if cap(block) != len(block) {
			t.Fatalf("batch %d: block cap %d, len %d", bi, cap(block), len(block))
		}
		write(block)
		dec, err := colfmt.Codec{}.Unmarshal(block)
		if err != nil {
			t.Fatalf("batch %d: unmarshal: %v", bi, err)
		}
		again, err := colfmt.Codec{}.Marshal(dec)
		if err != nil {
			t.Fatalf("batch %d: re-marshal: %v", bi, err)
		}
		write(again)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenColumnarBlocks {
		t.Fatalf("columnar blocks hash %s, want %s", got, goldenColumnarBlocks)
	}
}
