package core

import (
	"fmt"

	"github.com/gpf-go/gpf/internal/align"
	"github.com/gpf-go/gpf/internal/caller"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/vcf"
)

// Process is an execution instance of the pipeline: named, with declared
// input and output Resources and a body run by the scheduler.
type Process interface {
	ProcessName() string
	Inputs() []Resource
	Outputs() []Resource
	Run(rt *Runtime) error
}

// Runtime carries the shared execution state handed to Processes.
type Runtime struct {
	Engine *engine.Context
	Ref    *genome.Reference
	// Known is the known-variant database (the dbsnp_138 role).
	Known []vcf.Record
	// NumPartitions is the default parallelism for flat shuffles.
	NumPartitions int
	// PartitionLen is the PartitionInfo segment length.
	PartitionLen int
	// Codec selects the serializer tier for dataset/shuffle serialization:
	// the genomic GPF codec, the fast field codec (Kryo-like), or the
	// generic gob codec (Java-serialization-like). Baseline pipelines use
	// the lower tiers.
	Codec CodecTier
	// Optimize enables Process-level redundancy elimination (§4.3, Fig 7,
	// partitionBase.partitioned); the Table 4 experiment turns it off.
	Optimize bool
	// DynamicRepartition lets the repartitioner split overloaded partitions
	// (§4.4 step 3). Off, the census still runs and every partition keeps its
	// base interval, as in Churchill's static regions (Fig 10).
	DynamicRepartition bool
	// AlignerConfig tunes the BWA-MEM-like aligner.
	AlignerConfig align.Config
	// CallerConfig tunes the HaplotypeCaller-like caller.
	CallerConfig caller.Config

	index *align.FMIndex
}

// NewRuntime builds a Runtime with defaults sized for the engine context.
func NewRuntime(eng *engine.Context, ref *genome.Reference) *Runtime {
	return &Runtime{
		Engine:             eng,
		Ref:                ref,
		NumPartitions:      eng.Workers() * 4,
		PartitionLen:       1_000_000,
		Codec:              TierGPF,
		Optimize:           true,
		DynamicRepartition: true,
		AlignerConfig:      align.DefaultConfig(),
		CallerConfig:       caller.DefaultConfig(),
	}
}

// Index returns the FM-index over the reference, building it on first use.
func (rt *Runtime) Index() (*align.FMIndex, error) {
	if rt.index == nil {
		idx, err := align.BuildFMIndex(rt.Ref)
		if err != nil {
			return nil, err
		}
		rt.index = idx
	}
	return rt.index, nil
}

// Pipeline is the runtime-system driver (Table 2): Processes are added one
// by one to form a dynamic DAG; Run analyzes dependencies and executes
// Processes as their inputs become defined.
type Pipeline struct {
	Name      string
	rt        *Runtime
	processes []Process
	executed  []string
	ran       bool
}

// NewPipeline constructs a pipeline bound to a runtime.
func NewPipeline(name string, rt *Runtime) *Pipeline {
	return &Pipeline{Name: name, rt: rt}
}

// AddProcess appends a Process to the DAG under construction.
func (p *Pipeline) AddProcess(proc Process) {
	p.processes = append(p.processes, proc)
}

// ExecutionOrder returns the names of executed processes after Run.
func (p *Pipeline) ExecutionOrder() []string { return p.executed }

// Run executes the pipeline: Algorithm 1's resource-pool scheduling. Each
// resource is filled once, so Run knows before anything runs which resources
// are read more than once (by two Processes, or twice by one). It forces each
// of those before the first of its readers runs (Spark's persist), and every
// read then shares the one stored result instead of running the resource's
// lazy chain again. A persisted resource that a Process of this pipeline
// defined is released once its last reader has run (Spark's unpersist): Run
// drops its data, and a later read errors. A resource with one reader, a
// caller-defined one and a terminal are never released. Lazy results that
// still need released rows hold them through their own plans, so the rows
// are freed when nothing does. The engine itself counts no consumers. A
// pipeline runs once.
func (p *Pipeline) Run() error {
	if p.ran {
		return fmt.Errorf("core: pipeline %q already ran", p.Name)
	}
	p.ran = true
	readers := map[Resource]int{}
	for _, proc := range p.processes {
		for _, in := range proc.Inputs() {
			readers[in]++
		}
	}
	// unread counts the reads still to run of each resource Run persists
	// that a Process here defines: Run releases it after the last.
	unread := map[Resource]int{}
	for _, proc := range p.processes {
		for _, out := range proc.Outputs() {
			if readers[out] > 1 {
				unread[out] = readers[out]
			}
		}
	}

	// Algorithm 1: pool of defined resources, iterate until all processes
	// have run or no progress is possible (circular dependency).
	unfinished := make([]Process, len(p.processes))
	copy(unfinished, p.processes)
	for len(unfinished) > 0 {
		var runnable []Process
		var blocked []Process
		for _, proc := range unfinished {
			ready := true
			for _, in := range proc.Inputs() {
				if err := in.released(); err != nil {
					return fmt.Errorf("core: process %s: %w", proc.ProcessName(), err)
				}
				if in.State() != Defined {
					ready = false
					break
				}
			}
			if ready {
				runnable = append(runnable, proc)
			} else {
				blocked = append(blocked, proc)
			}
		}
		if len(runnable) == 0 {
			names := make([]string, len(blocked))
			for i, proc := range blocked {
				names[i] = proc.ProcessName()
			}
			return fmt.Errorf("core: circular dependency among processes %v", names)
		}
		for _, proc := range runnable {
			for _, in := range proc.Inputs() {
				if readers[in] > 1 {
					delete(readers, in)
					if err := in.persist(); err != nil {
						return fmt.Errorf("core: resource %s: %w", in.ResourceName(), err)
					}
				}
			}
			if err := proc.Run(p.rt); err != nil {
				return fmt.Errorf("core: process %s: %w", proc.ProcessName(), err)
			}
			for _, out := range proc.Outputs() {
				out.setDefined()
			}
			p.executed = append(p.executed, proc.ProcessName())
			for _, in := range proc.Inputs() {
				if n, ok := unread[in]; ok {
					unread[in] = n - 1
					if n == 1 {
						in.release(proc.ProcessName())
					}
				}
			}
		}
		unfinished = blocked
	}
	return nil
}
