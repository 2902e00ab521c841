// Package gpf is the public API of the GPF genomic analysis framework — the
// Go reproduction of "High-Performance Genomic Analysis Framework with
// In-Memory Computing" (PPoPP 2018). It re-exports the programming model
// (Pipeline, Process, Resource bundles), the data formats (FASTQ, SAM, VCF,
// reference genomes) and the execution engine entry points, so applications
// depend on one stable import path:
//
//	rt := gpf.NewRuntime(gpf.NewEngine(8), ref)
//	pairs := gpf.PairsToRDD(rt, reads, 64)
//	wgs := gpf.BuildWGSPipeline(rt, pairs, false)
//	if err := wgs.Pipeline.Run(); err != nil { ... }
//	calls, err := gpf.CollectVCF(rt, wgs.VCF)
//
// Users compose personalized pipelines exactly as in the paper's Fig 3:
// define Resources (bundles), instantiate Processes, add them to a Pipeline
// and call Run — the DAG scheduler orders execution, eliminates redundant
// partition shuffles, and runs everything on the in-memory engine.
package gpf

import (
	"io"

	"github.com/gpf-go/gpf/internal/core"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/vcf"
)

// Core programming-model types.
type (
	// Pipeline is the runtime-system driver: add Processes, then Run.
	Pipeline = core.Pipeline
	// Runtime carries the engine, reference and configuration shared by
	// Processes.
	Runtime = core.Runtime
	// Process is one execution instance in the pipeline DAG.
	Process = core.Process
	// Resource is the data abstraction connecting Processes.
	Resource = core.Resource
	// WGSPipeline bundles the standard pipeline with its terminal resources.
	WGSPipeline = core.WGSPipeline

	// FASTQPairBundle holds paired-end reads.
	FASTQPairBundle = core.FASTQPairBundle
	// SAMBundle holds alignments; a partition Process's output is
	// partitioned by genomic position.
	SAMBundle = core.SAMBundle
	// VCFBundle holds variant calls.
	VCFBundle = core.VCFBundle
	// PartitionInfoBundle holds the dynamic partition map.
	PartitionInfoBundle = core.PartitionInfoBundle
	// PartitionInfo maps genomic positions to partition IDs.
	PartitionInfo = core.PartitionInfo

	// CodecTier selects the serializer family (GPF genomic codec, fast
	// field codec, or generic gob).
	CodecTier = core.CodecTier
)

// Serializer tiers.
const (
	TierGPF   = core.TierGPF
	TierField = core.TierField
	TierGob   = core.TierGob
)

// Data-format types.
type (
	// Reference is an in-memory reference genome.
	Reference = genome.Reference
	// Contig is one reference sequence.
	Contig = genome.Contig
	// Interval is a half-open genomic range.
	Interval = genome.Interval
	// FASTQRecord is a single read.
	FASTQRecord = fastq.Record
	// FASTQPair is a paired-end read.
	FASTQPair = fastq.Pair
	// SAMRecord is one alignment.
	SAMRecord = sam.Record
	// SAMHeader is the alignment header.
	SAMHeader = sam.Header
	// VCFRecord is one variant call.
	VCFRecord = vcf.Record
	// VCFHeader is the variant-call header.
	VCFHeader = vcf.Header
)

// Engine is the in-memory dataflow engine context.
type Engine = engine.Context

// NewEngine creates an engine context with the given worker parallelism
// (workers < 1 selects GOMAXPROCS).
func NewEngine(workers int) *Engine { return engine.NewContext(workers) }

// NewRuntime builds a pipeline runtime over an engine and a reference.
func NewRuntime(eng *Engine, ref *Reference) *Runtime { return core.NewRuntime(eng, ref) }

// NewPipeline constructs an empty pipeline (the Pipeline constructor of
// Table 2).
func NewPipeline(name string, rt *Runtime) *Pipeline { return core.NewPipeline(name, rt) }

// Resource constructors (the Bundle.defined / Bundle.undefined calls of
// Fig 3).
var (
	DefinedFASTQPair       = core.DefinedFASTQPair
	UndefinedSAM           = core.UndefinedSAM
	DefinedSAM             = core.DefinedSAM
	UndefinedVCF           = core.UndefinedVCF
	UndefinedPartitionInfo = core.UndefinedPartitionInfo
	NewPartitionInfo       = core.NewPartitionInfo
)

// Process constructors (the algorithm-specific interfaces of Table 2).
var (
	NewBwaMemProcess            = core.NewBwaMemProcess
	NewMarkDuplicateProcess     = core.NewMarkDuplicateProcess
	NewReadRepartitionerProcess = core.NewReadRepartitionerProcess
	NewIndelRealignProcess      = core.NewIndelRealignProcess
	NewBaseRecalibrationProcess = core.NewBaseRecalibrationProcess
	NewHaplotypeCallerProcess   = core.NewHaplotypeCallerProcess
)

// BuildWGSPipeline assembles the paper's standard WGS pipeline (Fig 3):
// alignment, duplicate marking, dynamic repartitioning, indel realignment,
// base recalibration and haplotype calling.
func BuildWGSPipeline(rt *Runtime, pairs *Dataset[FASTQPair], useGVCF bool) *WGSPipeline {
	return core.BuildWGSPipeline(rt, pairs, useGVCF)
}

// Dataset is a partitioned in-memory collection (the engine's RDD).
type Dataset[T any] = engine.Dataset[T]

// LoadFastqPairToRDD reads two mate FASTQ streams into a paired dataset
// (FileLoader.loadFastqPairToRdd in Fig 3).
func LoadFastqPairToRDD(rt *Runtime, r1, r2 io.Reader, numPartitions int) (*Dataset[FASTQPair], error) {
	return core.LoadFastqPairToRDD(rt, r1, r2, numPartitions)
}

// PairsToRDD distributes in-memory pairs over numPartitions. The pairs carry
// no codec: only the aligner reads them, inside its own stage.
func PairsToRDD(rt *Runtime, pairs []FASTQPair, numPartitions int) *Dataset[FASTQPair] {
	return core.PairsToRDD(rt, pairs, numPartitions)
}

// CollectVCF gathers, sorts and dedupes the final call set.
func CollectVCF(rt *Runtime, b *VCFBundle) ([]VCFRecord, error) { return core.CollectVCF(rt, b) }

// Genome utilities.
var (
	// SynthesizeGenome generates a synthetic reference.
	SynthesizeGenome = genome.Synthesize
	// DefaultSynthConfig sizes a synthetic genome.
	DefaultSynthConfig = genome.DefaultSynthConfig
	// MutateGenome injects a truth set of variants, producing a donor.
	MutateGenome = genome.Mutate
	// DefaultMutateConfig returns human-like variant density.
	DefaultMutateConfig = genome.DefaultMutateConfig
	// ReadFASTA parses a FASTA stream.
	ReadFASTA = genome.ReadFASTA
	// WriteFASTA serializes a reference as FASTA.
	WriteFASTA = genome.WriteFASTA
	// SimulateReads samples paired-end reads from a donor genome.
	SimulateReads = fastq.Simulate
	// DefaultSimConfig sizes a read simulation.
	DefaultSimConfig = fastq.DefaultSimConfig
	// NewVCFHeader builds a VCF header from contig names/lengths.
	NewVCFHeader = vcf.NewHeader
	// WriteVCF serializes calls as VCF text.
	WriteVCF = vcf.Write
	// ReadVCF parses VCF text.
	ReadVCF = vcf.Read
	// CompareVCF scores a call set against a truth set.
	CompareVCF = vcf.Compare
	// WriteSAM serializes alignments as SAM text.
	WriteSAM = sam.WriteText
	// ReadSAM parses SAM text.
	ReadSAM = sam.ReadText
)
