// Package core implements the GPF programming model — the paper's primary
// contribution. Users describe a genomic pipeline as Processes connected by
// Resources (§3.1, Fig 2); the Pipeline driver performs the Process-level
// dependency analysis of Algorithm 1 and executes everything on the in-memory
// engine. Redundancy elimination (Fig 7) is decided where a partition Process
// reads its input: input already partitioned by its PartitionInfo is read as
// it is, so the SAM partitioning shuffle happens once per chain. Dynamic load
// balance follows §4.4: a RepartitionInfoProducer builds the PartitionInfo
// structure (Figs 8-9) that maps genomic positions to partition IDs,
// splitting overloaded partitions.
package core

import (
	"fmt"

	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/vcf"
)

// ResourceState is Fig 2's two-state machine plus the state a Pipeline
// leaves a shared resource in once all its readers have run.
type ResourceState int

// Resource states: a Resource is Undefined until some Process (or the user)
// fills it, after which dependent Processes become ready. A Pipeline moves a
// resource it persisted to Released after its last declared reader ran, and
// drops its data; reading it again is an error.
const (
	Undefined ResourceState = iota
	Defined
	Released
)

// Resource is the abstraction of data flowing between Processes: named,
// stateful, filled exactly once.
type Resource interface {
	ResourceName() string
	State() ResourceState
	setDefined()
	// persist materializes the resource's lazy data, so that the Processes
	// reading it share one computation (Pipeline.Run calls it).
	persist() error
	// release drops the resource's data once lastReader, the last Process
	// that reads it, has run (Pipeline.Run calls it on what it persisted).
	release(lastReader string)
	// released returns the error a read of a released resource gets, nil
	// while it may be read.
	released() error
}

// baseResource implements the shared Resource mechanics; concrete bundles
// embed it.
type baseResource struct {
	name  string
	state ResourceState
	// lastReader names the Process after which the resource was released.
	lastReader string
}

// ResourceName returns the user-assigned resource name.
func (r *baseResource) ResourceName() string { return r.name }

// State returns Defined once the resource content has been filled, and
// Released once a Pipeline has dropped it.
func (r *baseResource) State() ResourceState { return r.state }

func (r *baseResource) setDefined() { r.state = Defined }

func (r *baseResource) markReleased(lastReader string) {
	r.state, r.lastReader = Released, lastReader
}

func (r *baseResource) released() error {
	if r.state != Released {
		return nil
	}
	return fmt.Errorf("core: resource %q was released after its last reader %s", r.name, r.lastReader)
}

// force materializes d when the resource holds it.
func force[T any](d *engine.Dataset[T]) error {
	if d == nil {
		return nil
	}
	return d.Force()
}

// FASTQPairBundle is a Resource holding paired-end reads.
type FASTQPairBundle struct {
	baseResource
	Data *engine.Dataset[fastq.Pair]
}

// DefinedFASTQPair creates an already-filled FASTQ pair bundle (the
// FASTQPairBundle.defined of Fig 3).
func DefinedFASTQPair(name string, data *engine.Dataset[fastq.Pair]) *FASTQPairBundle {
	b := &FASTQPairBundle{baseResource: baseResource{name: name, state: Defined}, Data: data}
	return b
}

func (b *FASTQPairBundle) persist() error {
	if err := b.released(); err != nil {
		return err
	}
	return force(b.Data)
}

func (b *FASTQPairBundle) release(lastReader string) {
	b.markReleased(lastReader)
	b.Data = nil
}

// SAMBundle is a Resource holding alignments. A partition Process's output
// is position-partitioned: partition p of Data holds the records of
// info.Interval(p) (the Fig 7b "Partition Bundle RDD").
type SAMBundle struct {
	baseResource
	Header *sam.Header
	Data   *engine.Dataset[sam.Record]
	// info is the PartitionInfo Data is partitioned by, nil when Data is not
	// position-partitioned. Only partitionBase.publish sets it, with Data.
	info *PartitionInfo
}

func (b *SAMBundle) persist() error {
	if err := b.released(); err != nil {
		return err
	}
	return force(b.Data)
}

func (b *SAMBundle) release(lastReader string) {
	b.markReleased(lastReader)
	b.Data = nil
}

// UndefinedSAM creates an empty SAM bundle to be filled by a Process (the
// SAMBundle.undefined of Fig 3).
func UndefinedSAM(name string, header *sam.Header) *SAMBundle {
	return &SAMBundle{baseResource: baseResource{name: name}, Header: header}
}

// DefinedSAM creates an already-filled SAM bundle.
func DefinedSAM(name string, header *sam.Header, data *engine.Dataset[sam.Record]) *SAMBundle {
	return &SAMBundle{baseResource: baseResource{name: name, state: Defined}, Header: header, Data: data}
}

// VCFBundle is a Resource holding variant calls.
type VCFBundle struct {
	baseResource
	Header *vcf.Header
	Data   *engine.Dataset[vcf.Record]
}

func (b *VCFBundle) persist() error {
	if err := b.released(); err != nil {
		return err
	}
	return force(b.Data)
}

func (b *VCFBundle) release(lastReader string) {
	b.markReleased(lastReader)
	b.Data = nil
}

// UndefinedVCF creates an empty VCF bundle to be filled by a Process.
func UndefinedVCF(name string, header *vcf.Header) *VCFBundle {
	return &VCFBundle{baseResource: baseResource{name: name}, Header: header}
}

// PartitionInfoBundle is a Resource holding the dynamic partition map.
type PartitionInfoBundle struct {
	baseResource
	Info *PartitionInfo
}

// persist has nothing to force: the bundle holds no dataset.
func (b *PartitionInfoBundle) persist() error { return b.released() }

func (b *PartitionInfoBundle) release(lastReader string) {
	b.markReleased(lastReader)
	b.Info = nil
}

// UndefinedPartitionInfo creates an empty PartitionInfo bundle.
func UndefinedPartitionInfo(name string) *PartitionInfoBundle {
	return &PartitionInfoBundle{baseResource: baseResource{name: name}}
}
