// Package baseline implements the comparator systems of the paper's
// evaluation (§5.1), each as GPF's own pipeline plus what the comparator
// adds: Churchill is the WGS pipeline on static regions, unfused, paying a
// file handoff between tools; ADAM-like and GATK4-Spark-like runs execute the
// pipeline's own Cleaner Processes with generic serialization and, for ADAM,
// format conversion on entry and exit; Persona aligns single-end and pays its
// AGD format-conversion costs. The genomics algorithms and how a step is
// wired (shuffle key, passes, broadcasts) are core's, so measured gaps
// reflect only what the comparator adds.
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
	// Optimize enables Process-level redundancy elimination (Fig 7).
	Optimize bool
	// Codec selects the serializer tier.
	Codec core.CodecTier
}

// GPFOptions is the paper's system: dynamic repartition, fusion, genomic
// codec.
func GPFOptions() WGSOptions {
	return WGSOptions{DynamicRepartition: true, Optimize: true, Codec: core.TierGPF}
}

// ChurchillOptions: static regions decided up front, no in-memory fusion.
// Its tool handoff through files is charged to its trace (FileHandoff).
func ChurchillOptions() WGSOptions {
	return WGSOptions{DynamicRepartition: false, Optimize: false, Codec: core.TierField}
}

// Configure sets the runtime's three ablation switches from the options.
func (o WGSOptions) Configure(rt *core.Runtime) {
	rt.Codec, rt.Optimize, rt.DynamicRepartition = o.Codec, o.Optimize, o.DynamicRepartition
}

// FileHandoff is the stage Churchill spends handing one tool's output to the
// next: each of its regions tasks writes its region's intermediate file to the
// shared FS and the next tool reads it back (SAM/BAM intermediates are often
// larger than the input, per §1), and the driver merges the region outputs
// serially (Churchill's scatter/gather barrier). Churchill pays one per tool —
// one per Process of the pipeline — whatever engine stages the tool ran as.
func FileHandoff(tool string, regions int, bytesPerTask int64, merge time.Duration) cluster.StageWork {
	s := cluster.StageWork{Name: tool + "/handoff", Tasks: make([]cluster.TaskWork, regions), Driver: merge}
	for i := range s.Tasks {
		s.Tasks[i] = cluster.TaskWork{ReadBytes: bytesPerTask, WriteBytes: bytesPerTask}
	}
	return s
}
