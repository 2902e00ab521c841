// Package baseline implements the comparator systems of the paper's
// evaluation (§5.1): Churchill's static-region, file-handoff pipeline
// parallelization; ADAM-like and GATK4-Spark-like per-stage implementations
// (in-memory but with generic serialization, per-stage format conversion and
// no Process-level fusion); and the Persona dataflow model with its AGD
// format-conversion costs. Each baseline runs the same underlying genomics
// algorithms, differing exactly in the engineering dimensions the paper
// credits for GPF's advantage — so measured gaps reflect those dimensions.
package baseline

import (
	"time"

	"github.com/gpf-go/gpf/internal/cluster"
	"github.com/gpf-go/gpf/internal/core"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/fastq"
)

// System identifies a comparator.
type System int

// The evaluated systems.
const (
	GPF System = iota
	Churchill
	ADAM
	GATK4
	Persona
)

// String names the system.
func (s System) String() string {
	switch s {
	case Churchill:
		return "Churchill"
	case ADAM:
		return "ADAM"
	case GATK4:
		return "GATK4"
	case Persona:
		return "Persona"
	default:
		return "GPF"
	}
}

// WGSOptions configure a full-pipeline run for Fig 10 comparisons.
type WGSOptions struct {
	// DynamicRepartition enables §4.4's load balancing; Churchill fixes
	// regions at the start of the analysis.
	DynamicRepartition bool
	// Fuse enables Process-level redundancy elimination.
	Fuse bool
	// Codec selects the serializer tier.
	Codec core.CodecTier
	// FileHandoff charges per-stage intermediate file I/O (Churchill-style
	// workflow managers spill between tools).
	FileHandoff bool
}

// GPFOptions is the paper's system: dynamic repartition, fusion, genomic
// codec, no file handoff.
func GPFOptions() WGSOptions {
	return WGSOptions{DynamicRepartition: true, Fuse: true, Codec: core.TierGPF}
}

// ChurchillOptions: static regions decided up front, tool handoff through
// files, no in-memory fusion.
func ChurchillOptions() WGSOptions {
	return WGSOptions{DynamicRepartition: false, Fuse: false, Codec: core.TierField, FileHandoff: true}
}

// Configure translates the options into runtime settings: the codec tier and,
// with dynamic repartitioning off, a split threshold no census can exceed.
// Fuse is a pipeline setting (Pipeline.Optimize), applied once the pipeline is
// built over the dataset loaded under these settings.
func (o WGSOptions) Configure(rt *core.Runtime) {
	rt.Codec = o.Codec
	if !o.DynamicRepartition {
		rt.SplitThresholdFactor = 1e18
	}
}

// WGSRun is the outcome of a full-pipeline baseline run.
type WGSRun struct {
	Metrics  engine.Metrics
	NumCalls int
}

// RunWGS executes the WGS pipeline under the given options and returns the
// engine metrics (the raw material for trace replay at cluster scale).
func RunWGS(rt *core.Runtime, pairs []fastq.Pair, opts WGSOptions) (*WGSRun, error) {
	opts.Configure(rt)
	ds := core.PairsToRDD(rt, pairs, rt.NumPartitions)
	wgs := core.BuildWGSPipeline(rt, ds, false)
	wgs.Pipeline.Optimize = opts.Fuse
	if err := wgs.Pipeline.Run(); err != nil {
		return nil, err
	}
	calls, err := core.CollectVCF(rt, wgs.VCF)
	if err != nil {
		return nil, err
	}
	return &WGSRun{Metrics: rt.Engine.Metrics(), NumCalls: len(calls)}, nil
}

// AddFileHandoff rewrites a trace to the file-handoff execution style: after
// every stage, the stage's output bytes are written to the shared FS and
// read back by the next stage. bytesPerTask approximates each task's
// intermediate file size (SAM/BAM intermediates are often larger than the
// input, per §1).
func AddFileHandoff(tr cluster.Trace, bytesPerTask int64) cluster.Trace {
	out := cluster.Trace{Stages: make([]cluster.StageWork, len(tr.Stages))}
	for i, s := range tr.Stages {
		ns := cluster.StageWork{Name: s.Name, Kind: s.Kind, Driver: s.Driver}
		for _, t := range s.Tasks {
			t.WriteBytes += bytesPerTask
			t.ReadBytes += bytesPerTask
			ns.Tasks = append(ns.Tasks, t)
		}
		out.Stages[i] = ns
	}
	return out
}

// SerialScatterGather models Churchill's per-stage scatter/gather barrier: a
// serial driver step proportional to the region count is charged per stage
// (Churchill's deterministic merge of region outputs).
func SerialScatterGather(tr cluster.Trace, perStage time.Duration) cluster.Trace {
	out := cluster.Trace{Stages: make([]cluster.StageWork, len(tr.Stages))}
	for i, s := range tr.Stages {
		s.Driver += perStage
		out.Stages[i] = s
	}
	return out
}
