package baseline

import (
	"bytes"
	"encoding/gob"
	"testing"

	"github.com/gpf-go/gpf/internal/core"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/vcf"
)

// runWGSCalls runs the full WGS pipeline under the given codec tier with
// serialized caching and returns the final call set plus the engine metrics.
// TierGPF stores per-field columns; TierField is the row side: same
// pipeline, whole-record blocks.
func runWGSCalls(t *testing.T, rt *core.Runtime, pairs []fastq.Pair, tier core.CodecTier) ([]vcf.Record, engine.Metrics) {
	t.Helper()
	rt.Codec = tier
	rt.Engine.StoreSerialized = true
	rt.Optimize = true
	ds := core.PairsToRDD(rt, pairs, rt.NumPartitions)
	wgs := core.BuildWGSPipeline(rt, ds, false)
	if err := wgs.Pipeline.Run(); err != nil {
		t.Fatal(err)
	}
	calls, err := core.CollectVCF(rt, wgs.VCF)
	if err != nil {
		t.Fatal(err)
	}
	return calls, rt.Engine.Metrics()
}

func gobCalls(t *testing.T, calls []vcf.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(calls); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestColumnarPipelineByteIdentical is the storage-tier property test: the
// full pipeline must produce byte-identical output whether partitions are
// stored and shuffled columnar or through the row-wise field codec —
// projection pushdown is an optimization, never a semantics change. It also
// pins the optimization down: only the columnar run may report pruned bytes,
// and it must actually prune some.
func TestColumnarPipelineByteIdentical(t *testing.T) {
	rt, pairs := testSetup(t, 8)
	colCalls, colM := runWGSCalls(t, rt, pairs, core.TierGPF)

	rt2 := core.NewRuntime(engine.NewContext(2), rt.Ref)
	rt2.PartitionLen = 5000
	rowCalls, rowM := runWGSCalls(t, rt2, pairs, core.TierField)

	if len(colCalls) == 0 {
		t.Fatal("columnar run called nothing")
	}
	if a, b := gobCalls(t, colCalls), gobCalls(t, rowCalls); !bytes.Equal(a, b) {
		t.Fatalf("pipeline output differs: columnar %d calls (%d bytes) vs row %d calls (%d bytes)",
			len(colCalls), len(a), len(rowCalls), len(b))
	}
	if colM.TotalPrunedBytes() == 0 {
		t.Fatal("columnar run should prune bytes in the coordinate census")
	}
	if rowM.TotalPrunedBytes() != 0 {
		t.Fatalf("row tier pruned %d bytes, want 0", rowM.TotalPrunedBytes())
	}
	if colM.TotalDecodedBytes() == 0 {
		t.Fatal("columnar run decoded no bytes")
	}
}
