package core

import (
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/vcf"
)

// WGSPipeline bundles the constructed pipeline with handles to its terminal
// resources, so callers can collect results after Run. Deduped has two
// readers, the census and IndelRealign, so Run releases it after the latter:
// once Run returns it is Released and holds no data.
type WGSPipeline struct {
	Pipeline  *Pipeline
	Aligned   *SAMBundle
	Deduped   *SAMBundle
	Realigned *SAMBundle
	Recaled   *SAMBundle
	VCF       *VCFBundle
}

// BuildWGSPipeline assembles the paper's example pipeline (Fig 3):
// BWA-MEM alignment, duplicate marking, dynamic repartitioning, indel
// realignment, base recalibration, and haplotype calling. useGVCF is the
// HaplotypeCallerProcess's gVCF flag (Fig 3, Table 2). The census defining
// partitionInfo is added last: Algorithm 1 runs Processes by readiness, so
// it may come after its readers.
func BuildWGSPipeline(rt *Runtime, pairs *engine.Dataset[fastq.Pair], useGVCF bool) *WGSPipeline {
	pipeline := NewPipeline("wgs", rt)
	info := UndefinedPartitionInfo("partitionInfo")
	fastqBundle := DefinedFASTQPair("fastqPair", pairs)
	aligned := UndefinedSAM("alignedSam", unsortedHeader(rt))
	pipeline.AddProcess(NewBwaMemProcess("BwaMapping", fastqBundle, aligned))

	deduped := UndefinedSAM("dedupedSam", nil)
	pipeline.AddProcess(NewMarkDuplicateProcess("MarkDuplicate", aligned, deduped))

	realigned := UndefinedSAM("realignedSam", nil)
	pipeline.AddProcess(NewIndelRealignProcess("IndelRealign", info, deduped, realigned))

	recaled := UndefinedSAM("recaledSam", nil)
	pipeline.AddProcess(NewBaseRecalibrationProcess("BaseRecalibration", info, realigned, recaled))

	result := UndefinedVCF("ResultVCF", vcf.NewHeader(refNames(rt), rt.Ref.Lengths(), "sample"))
	pipeline.AddProcess(NewHaplotypeCallerProcess("HaplotypeCaller", info, recaled, result, useGVCF))

	pipeline.AddProcess(NewReadRepartitionerProcess("ReadRepartitioner", []*SAMBundle{deduped}, info))
	return &WGSPipeline{
		Pipeline:  pipeline,
		Aligned:   aligned,
		Deduped:   deduped,
		Realigned: realigned,
		Recaled:   recaled,
		VCF:       result,
	}
}

func unsortedHeader(rt *Runtime) *sam.Header {
	h, _ := sam.NewHeader(sam.Unsorted, refNames(rt), rt.Ref.Lengths())
	return h
}
