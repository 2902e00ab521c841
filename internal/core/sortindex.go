package core

import (
	"fmt"
	"sort"

	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
)

// Fig 1's Cleaner stage begins with "Sort, Index, MarkDuplicate". The
// MarkDuplicateProcess sorts within its groups; these Processes provide the
// explicit coordinate sort and the genomic index when a pipeline needs
// globally sorted output or region queries (samtools sort/index equivalents).

// CoordinateSortProcess produces a globally coordinate-sorted SAM bundle:
// records are shuffled to position-ordered partitions and sorted within
// each, so concatenating partitions yields genome order.
type CoordinateSortProcess struct {
	baseProcess
	in, out *SAMBundle
}

// NewCoordinateSortProcess constructs the sort process.
func NewCoordinateSortProcess(name string, in, out *SAMBundle) *CoordinateSortProcess {
	return &CoordinateSortProcess{
		baseProcess: baseProcess{name: name, inputs: []Resource{in}, outputs: []Resource{out}},
		in:          in, out: out,
	}
}

// Run shuffles by base partition ID (monotone in genome position) and sorts
// each partition.
func (p *CoordinateSortProcess) Run(rt *Runtime) error {
	flat, err := p.in.EnsureFlat(rt)
	if err != nil {
		return err
	}
	info, err := NewPartitionInfo(rt.Ref.Lengths(), rt.PartitionLen)
	if err != nil {
		return err
	}
	n := info.NumPartitions() + 1 // final slot collects unmapped reads
	parted, err := engine.PartitionBy(p.name+"/partition",
		engine.WithCodec(flat, rt.SAMCodec()), n,
		func(r sam.Record) int {
			if r.RefID < 0 {
				return n - 1
			}
			return info.BaseID(int(r.RefID), int(r.Pos))
		})
	if err != nil {
		return err
	}
	sorted, err := engine.SortPartitions(p.name+"/sort", parted, func(a, b sam.Record) bool {
		return sam.CoordinateLess(&a, &b)
	})
	if err != nil {
		return err
	}
	p.out.Data = sorted
	if p.out.Header == nil && p.in.Header != nil {
		p.out.Header = p.in.Header.Clone(sam.Coordinate)
	}
	return nil
}

// IndexEntry describes one partition of a sorted SAM dataset: its genomic
// span and record count — the linear-index role of a BAM .bai file.
type IndexEntry struct {
	Partition int
	Contig    int32 // -1 for the unmapped slot
	Start     int32
	End       int32 // exclusive alignment end bound
	Records   int
}

// SAMIndex is the Resource produced by IndexProcess: per-partition genomic
// spans over a coordinate-sorted bundle, supporting region queries without
// scanning unrelated partitions.
type SAMIndex struct {
	baseResource
	Entries []IndexEntry
	source  *SAMBundle
}

// UndefinedSAMIndex creates an empty index resource.
func UndefinedSAMIndex(name string) *SAMIndex {
	return &SAMIndex{baseResource: baseResource{name: name}}
}

// IndexProcess builds a SAMIndex over a coordinate-sorted bundle.
type IndexProcess struct {
	baseProcess
	in  *SAMBundle
	out *SAMIndex
}

// NewIndexProcess constructs the index process.
func NewIndexProcess(name string, in *SAMBundle, out *SAMIndex) *IndexProcess {
	return &IndexProcess{
		baseProcess: baseProcess{name: name, inputs: []Resource{in}, outputs: []Resource{out}},
		in:          in, out: out,
	}
}

// Run summarizes each partition's genomic span.
func (p *IndexProcess) Run(rt *Runtime) error {
	flat, err := p.in.EnsureFlat(rt)
	if err != nil {
		return err
	}
	summaries, err := engine.MapPartitions(p.name+"/summarize", flat, nil,
		func(part int, recs []sam.Record) ([]IndexEntry, error) {
			e := IndexEntry{Partition: part, Contig: -1, Start: -1, End: -1, Records: len(recs)}
			for i := range recs {
				r := &recs[i]
				if r.Unmapped() {
					continue
				}
				if e.Contig == -1 {
					e.Contig = r.RefID
					e.Start = r.Pos
				}
				if r.RefID != e.Contig {
					return nil, fmt.Errorf("core: partition %d spans contigs %d and %d; input not position-partitioned",
						part, e.Contig, r.RefID)
				}
				if end := r.End(); end > e.End {
					e.End = end
				}
			}
			return []IndexEntry{e}, nil
		})
	if err != nil {
		return err
	}
	entries, err := engine.Collect(p.name+"/collect", summaries)
	if err != nil {
		return err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Partition < entries[j].Partition })
	p.out.Entries = entries
	p.out.source = p.in
	return nil
}

// Query returns the records of the sorted bundle overlapping iv, touching
// only the partitions whose index span intersects it.
func (ix *SAMIndex) Query(rt *Runtime, iv genome.Interval) ([]sam.Record, error) {
	if ix.source == nil {
		return nil, fmt.Errorf("core: index %q not built", ix.ResourceName())
	}
	flat, err := ix.source.EnsureFlat(rt)
	if err != nil {
		return nil, err
	}
	want := map[int]bool{}
	for _, e := range ix.Entries {
		if e.Contig != int32(iv.Contig) || e.Records == 0 || e.Contig == -1 {
			continue
		}
		if int(e.Start) < iv.End && iv.Start < int(e.End) {
			want[e.Partition] = true
		}
	}
	if len(want) == 0 {
		return nil, nil
	}
	hits, err := engine.MapPartitions(ix.ResourceName()+"/query", flat, nil,
		func(part int, recs []sam.Record) ([]sam.Record, error) {
			if !want[part] {
				return nil, nil
			}
			var out []sam.Record
			for i := range recs {
				r := &recs[i]
				if r.Unmapped() || int(r.RefID) != iv.Contig {
					continue
				}
				if int(r.Pos) < iv.End && iv.Start < int(r.End()) {
					out = append(out, *r)
				}
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	return engine.Collect(ix.ResourceName()+"/query-collect", hits)
}
