package core

import (
	"io"

	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/fastq"
)

// FileLoader mirrors the paper's FileLoader API (Fig 3): it turns genomic
// files into engine datasets.

// LoadFastqPairToRDD reads two mate FASTQ streams and distributes the pairs
// over numPartitions.
func LoadFastqPairToRDD(rt *Runtime, r1, r2 io.Reader, numPartitions int) (*engine.Dataset[fastq.Pair], error) {
	pairs, err := fastq.ReadPairs(r1, r2)
	if err != nil {
		return nil, err
	}
	return PairsToRDD(rt, pairs, numPartitions), nil
}

// PairsToRDD distributes in-memory pairs over numPartitions — the entry point
// for simulated datasets. The pairs carry no codec: no stage stores or
// shuffles them; the aligner reads them inside its own stage.
func PairsToRDD(rt *Runtime, pairs []fastq.Pair, numPartitions int) *engine.Dataset[fastq.Pair] {
	return engine.Parallelize(rt.Engine, pairs, numPartitions)
}
