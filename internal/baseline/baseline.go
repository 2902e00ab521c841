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
}

// GPFOptions is the paper's system: dynamic repartition, fusion, genomic
// codec.
func GPFOptions() WGSOptions {
	return WGSOptions{DynamicRepartition: true, Fuse: true, Codec: core.TierGPF}
}

// ChurchillOptions: static regions decided up front, no in-memory fusion.
// Its tool handoff through files is charged to its trace (AddFileHandoff).
func ChurchillOptions() WGSOptions {
	return WGSOptions{DynamicRepartition: false, Fuse: false, Codec: core.TierField}
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
