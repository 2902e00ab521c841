package core

import (
	"fmt"

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
// realignment, base recalibration, and haplotype calling.
func BuildWGSPipeline(rt *Runtime, pairs *engine.Dataset[fastq.Pair], useGVCF bool) *WGSPipeline {
	pipeline := NewPipeline("wgs", rt)
	partInfo := UndefinedPartitionInfo("partitionInfo")
	wgs := addSample(pipeline, rt, partInfo, "", "sample", pairs, useGVCF)
	pipeline.AddProcess(NewReadRepartitionerProcess("ReadRepartitioner", []*SAMBundle{wgs.Deduped}, partInfo))
	return wgs
}

// addSample adds one sample's five Processes, each Process and resource named
// prefix + its BuildWGSPipeline name, partitioned by info. The caller adds
// the census defining info; Algorithm 1 runs Processes by readiness, so it
// may come after its readers.
func addSample(pipeline *Pipeline, rt *Runtime, info *PartitionInfoBundle, prefix, sample string,
	pairs *engine.Dataset[fastq.Pair], useGVCF bool) *WGSPipeline {
	fastqBundle := DefinedFASTQPair(prefix+"fastqPair", pairs)
	aligned := UndefinedSAM(prefix+"alignedSam", unsortedHeader(rt))
	pipeline.AddProcess(NewBwaMemProcess(prefix+"BwaMapping", fastqBundle, aligned))

	deduped := UndefinedSAM(prefix+"dedupedSam", nil)
	pipeline.AddProcess(NewMarkDuplicateProcess(prefix+"MarkDuplicate", aligned, deduped))

	realigned := UndefinedSAM(prefix+"realignedSam", nil)
	pipeline.AddProcess(NewIndelRealignProcess(prefix+"IndelRealign", info, deduped, realigned))

	recaled := UndefinedSAM(prefix+"recaledSam", nil)
	pipeline.AddProcess(NewBaseRecalibrationProcess(prefix+"BaseRecalibration", info, realigned, recaled))

	result := UndefinedVCF(prefix+"ResultVCF", vcf.NewHeader(refNames(rt), rt.Ref.Lengths(), sample))
	pipeline.AddProcess(NewHaplotypeCallerProcess(prefix+"HaplotypeCaller", info, recaled, result, useGVCF))

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

// SampleInput is one sample's reads. The paper's Cleaner/Caller interfaces
// take SAM bundle lists (Table 2), and Table 1 scales to 30 samples.
type SampleInput struct {
	Name  string
	Pairs *engine.Dataset[fastq.Pair]
}

// MultiSampleWGS holds the constructed pipeline and per-sample terminals.
type MultiSampleWGS struct {
	Pipeline *Pipeline
	// VCFs[i] is sample i's result bundle.
	VCFs []*VCFBundle
	// Names[i] is sample i's name.
	Names []string
}

// BuildMultiSampleWGS assembles one pipeline over several samples: each gets
// BuildWGSPipeline's Processes, named "<sample>/<name>" ("sample<i+1>" when
// unnamed), and one census over every sample's deduplicated reads gives the
// PartitionInfo they all share.
func BuildMultiSampleWGS(rt *Runtime, samples []SampleInput, useGVCF bool) (*MultiSampleWGS, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: no samples")
	}
	pipeline := NewPipeline("multi-wgs", rt)
	res := &MultiSampleWGS{Pipeline: pipeline}
	partInfo := UndefinedPartitionInfo("partitionInfo")
	dedupeds := make([]*SAMBundle, len(samples))
	for i, s := range samples {
		name := s.Name
		if name == "" {
			name = fmt.Sprintf("sample%d", i+1)
		}
		wgs := addSample(pipeline, rt, partInfo, name+"/", name, s.Pairs, useGVCF)
		dedupeds[i] = wgs.Deduped
		res.Names = append(res.Names, name)
		res.VCFs = append(res.VCFs, wgs.VCF)
	}
	pipeline.AddProcess(NewReadRepartitionerProcess("ReadRepartitioner", dedupeds, partInfo))
	return res, nil
}
