package core

import (
	"fmt"

	"github.com/gpf-go/gpf/internal/align"
	"github.com/gpf-go/gpf/internal/caller"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/vcf"
)

// ProcessState is the three-state machine of Fig 2.
type ProcessState int

// Process states: Blocked until all input Resources are defined, Ready when
// schedulable, Running while executing; End is implicit on return.
const (
	Blocked ProcessState = iota
	Ready
	Running
	End
)

// Process is an execution instance of the pipeline: named, with declared
// input and output Resources and a body run by the scheduler.
type Process interface {
	ProcessName() string
	Inputs() []Resource
	Outputs() []Resource
	Run(rt *Runtime) error
}

// partitionProcess marks Processes that operate on position-partitioned
// bundle data (Fig 7's "partition Process"); chains of these are candidates
// for redundancy elimination.
type partitionProcess interface {
	Process
	// samInput returns the SAM resource whose bundled form the process can
	// reuse; samOutput the SAM resource it fills.
	samInput() *SAMBundle
	// setUseBundle tells the process the optimizer fused it with its
	// predecessor: consume the input's bundled dataset directly.
	setUseBundle(bool)
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
	// SplitThresholdFactor: partitions holding more than factor × the median
	// reads per non-empty partition are split by the repartitioner (§4.4
	// step 3).
	SplitThresholdFactor float64
	// AlignerConfig tunes the BWA-MEM-like aligner.
	AlignerConfig align.Config
	// CallerConfig tunes the HaplotypeCaller-like caller.
	CallerConfig caller.Config

	index *align.FMIndex
}

// NewRuntime builds a Runtime with defaults sized for the engine context.
func NewRuntime(eng *engine.Context, ref *genome.Reference) *Runtime {
	return &Runtime{
		Engine:               eng,
		Ref:                  ref,
		NumPartitions:        eng.Workers() * 4,
		PartitionLen:         1_000_000,
		Codec:                TierGPF,
		SplitThresholdFactor: 2.0,
		AlignerConfig:        align.DefaultConfig(),
		CallerConfig:         caller.DefaultConfig(),
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
// by one to form a dynamic DAG; Run analyzes dependencies, applies the
// redundancy-elimination rewrite, and executes Processes as their inputs
// become defined.
type Pipeline struct {
	Name string
	rt   *Runtime
	// Optimize enables Process-level redundancy elimination (§4.3); the
	// Table 4 experiment flips it.
	Optimize  bool
	processes []Process
	executed  []string
}

// NewPipeline constructs a pipeline bound to a runtime.
func NewPipeline(name string, rt *Runtime) *Pipeline {
	return &Pipeline{Name: name, rt: rt, Optimize: true}
}

// AddProcess appends a Process to the DAG under construction.
func (p *Pipeline) AddProcess(proc Process) {
	p.processes = append(p.processes, proc)
}

// ExecutionOrder returns the names of executed processes after Run.
func (p *Pipeline) ExecutionOrder() []string { return p.executed }

// Run executes the pipeline: Algorithm 1's resource-pool scheduling, with
// the Fig 7 rewrite applied first when Optimize is set.
func (p *Pipeline) Run() error {
	if p.Optimize {
		p.fusePartitionChains()
	} else {
		for _, proc := range p.processes {
			if pp, ok := proc.(partitionProcess); ok {
				pp.setUseBundle(false)
			}
		}
	}

	// Algorithm 1: pool of defined resources, iterate until all processes
	// have run or no progress is possible (circular dependency).
	unfinished := make([]Process, len(p.processes))
	copy(unfinished, p.processes)
	defined := func(r Resource) bool { return r.State() == Defined }
	for len(unfinished) > 0 {
		var runnable []Process
		var blocked []Process
		for _, proc := range unfinished {
			ready := true
			for _, in := range proc.Inputs() {
				if !defined(in) {
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
			if err := proc.Run(p.rt); err != nil {
				return fmt.Errorf("core: process %s: %w", proc.ProcessName(), err)
			}
			for _, out := range proc.Outputs() {
				out.setDefined()
			}
			p.executed = append(p.executed, proc.ProcessName())
		}
		unfinished = blocked
	}
	return nil
}

// fusePartitionChains implements the Fig 7 rewrite: walk the process list
// and mark a partition Process as bundle-consuming when its SAM input is
// produced by another partition Process whose output feeds only this one
// (interior in/out degree 1 along the chain).
func (p *Pipeline) fusePartitionChains() {
	// Count consumers of each resource and record producers.
	consumers := map[Resource]int{}
	producer := map[Resource]Process{}
	for _, proc := range p.processes {
		for _, in := range proc.Inputs() {
			consumers[in]++
		}
		for _, out := range proc.Outputs() {
			producer[out] = proc
		}
	}
	for _, proc := range p.processes {
		pp, ok := proc.(partitionProcess)
		if !ok {
			continue
		}
		in := pp.samInput()
		if in == nil {
			pp.setUseBundle(false)
			continue
		}
		prev, ok := producer[Resource(in)].(partitionProcess)
		if !ok || prev == nil {
			pp.setUseBundle(false)
			continue
		}
		// The producer's output must feed exactly this process (out-degree 1
		// of the chain edge); shared outputs force the flat form.
		if consumers[Resource(in)] != 1 {
			pp.setUseBundle(false)
			continue
		}
		pp.setUseBundle(true)
	}
}
