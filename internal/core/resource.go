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

// dataBundle is a Resource holding one dataset; the dataset bundles embed
// it.
type dataBundle[T any] struct {
	baseResource
	Data *engine.Dataset[T]
}

func (b *dataBundle[T]) persist() error {
	if err := b.released(); err != nil {
		return err
	}
	if b.Data == nil {
		return nil
	}
	return b.Data.Force()
}

func (b *dataBundle[T]) release(lastReader string) {
	b.markReleased(lastReader)
	b.Data = nil
}

// dataset returns the bundle's data, or the release error once released, or
// an error while it holds none.
func (b *dataBundle[T]) dataset() (*engine.Dataset[T], error) {
	if err := b.released(); err != nil {
		return nil, err
	}
	if b.Data == nil {
		return nil, fmt.Errorf("core: resource %q holds no data", b.name)
	}
	return b.Data, nil
}

// FASTQPairBundle is a Resource holding paired-end reads.
type FASTQPairBundle struct {
	dataBundle[fastq.Pair]
}

// DefinedFASTQPair creates an already-filled FASTQ pair bundle (the
// FASTQPairBundle.defined of Fig 3).
func DefinedFASTQPair(name string, data *engine.Dataset[fastq.Pair]) *FASTQPairBundle {
	return &FASTQPairBundle{dataBundle[fastq.Pair]{baseResource{name: name, state: Defined}, data}}
}

// SAMBundle is a Resource holding alignments. A partition Process's output
// is position-partitioned: partition p of Data holds the records of
// info.Interval(p) (the Fig 7b "Partition Bundle RDD").
type SAMBundle struct {
	dataBundle[sam.Record]
	Header *sam.Header
	// info is the PartitionInfo Data is partitioned by, nil when Data is not
	// position-partitioned. Only partitionBase.publish sets it, with Data.
	info *PartitionInfo
}

// UndefinedSAM creates an empty SAM bundle to be filled by a Process (the
// SAMBundle.undefined of Fig 3).
func UndefinedSAM(name string, header *sam.Header) *SAMBundle {
	return &SAMBundle{dataBundle: dataBundle[sam.Record]{baseResource: baseResource{name: name}}, Header: header}
}

// DefinedSAM creates an already-filled SAM bundle.
func DefinedSAM(name string, header *sam.Header, data *engine.Dataset[sam.Record]) *SAMBundle {
	return &SAMBundle{dataBundle: dataBundle[sam.Record]{baseResource{name: name, state: Defined}, data}, Header: header}
}

// VCFBundle is a Resource holding variant calls.
type VCFBundle struct {
	dataBundle[vcf.Record]
	Header *vcf.Header
}

// UndefinedVCF creates an empty VCF bundle to be filled by a Process.
func UndefinedVCF(name string, header *vcf.Header) *VCFBundle {
	return &VCFBundle{dataBundle: dataBundle[vcf.Record]{baseResource: baseResource{name: name}}, Header: header}
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
