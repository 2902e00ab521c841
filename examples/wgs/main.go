// WGS accuracy demo: runs the full pipeline on a synthetic donor genome and
// scores the calls against the injected truth set, reporting precision and
// recall — the correctness check behind every performance number in the
// paper reproduction. It also demonstrates the optimizer by running the same
// pipeline with redundancy elimination disabled and comparing engine
// metrics (the Table 4 effect at example scale).
package main

import (
	"fmt"
	"log"

	"github.com/gpf-go/gpf/pkg/gpf"
)

func main() {
	ref := gpf.SynthesizeGenome(gpf.DefaultSynthConfig(11, 80000, 3))
	donor := gpf.MutateGenome(ref, gpf.DefaultMutateConfig(12))
	reads := gpf.SimulateReads(donor, gpf.DefaultSimConfig(13, 15))
	fmt.Printf("dataset: %d bases, %d pairs, %d truth variants\n",
		ref.TotalLen(), len(reads), len(donor.Truth.Variants))

	// Truth set in VCF form for scoring.
	var truth []gpf.VCFRecord
	for _, v := range donor.Truth.Variants {
		truth = append(truth, gpf.VCFRecord{
			Chrom: ref.Contigs[v.Contig].Name,
			Pos:   v.Pos,
			Ref:   string(v.Ref),
			Alt:   string(v.Alt),
		})
	}

	for _, optimize := range []bool{true, false} {
		rt := gpf.NewRuntime(gpf.NewEngine(4), ref)
		rt.PartitionLen = 8000
		rt.Optimize = optimize
		pairs := gpf.PairsToRDD(rt, reads, 8)
		wgs := gpf.BuildWGSPipeline(rt, pairs, false)
		if err := wgs.Pipeline.Run(); err != nil {
			log.Fatal(err)
		}
		calls, err := gpf.CollectVCF(rt, wgs.VCF)
		if err != nil {
			log.Fatal(err)
		}
		stats := gpf.CompareVCF(calls, truth, 2)
		m := rt.Engine.Metrics()
		mode := "optimized"
		if !optimize {
			mode = "unoptimized"
		}
		fmt.Printf("%-12s stages=%2d shuffle=%6.2fMB calls=%3d precision=%.2f recall=%.2f\n",
			mode, m.NumStages(), float64(m.TotalShuffleBytes())/1e6, len(calls),
			stats.Precision(), stats.Recall())
	}
}
