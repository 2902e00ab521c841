package core

import (
	"fmt"
	"slices"
	"sort"

	"github.com/gpf-go/gpf/internal/align"
	"github.com/gpf-go/gpf/internal/caller"
	"github.com/gpf-go/gpf/internal/cleaner"
	"github.com/gpf-go/gpf/internal/colfmt"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/vcf"
)

// baseProcess implements the shared Process bookkeeping.
type baseProcess struct {
	name    string
	inputs  []Resource
	outputs []Resource
}

// ProcessName returns the user-assigned process name.
func (p *baseProcess) ProcessName() string { return p.name }

// Inputs returns the resources that must be defined before the process runs.
func (p *baseProcess) Inputs() []Resource { return p.inputs }

// Outputs returns the resources the process defines on completion.
func (p *baseProcess) Outputs() []Resource { return p.outputs }

// BwaMemProcess is the Aligner stage (Table 2: BwaMemProcess.pairEnd): maps
// paired-end reads to the reference with the BWT-based aligner.
type BwaMemProcess struct {
	baseProcess
	in  *FASTQPairBundle
	out *SAMBundle
}

// NewBwaMemProcess constructs the aligner process.
func NewBwaMemProcess(name string, in *FASTQPairBundle, out *SAMBundle) *BwaMemProcess {
	return &BwaMemProcess{
		baseProcess: baseProcess{name: name, inputs: []Resource{in}, outputs: []Resource{out}},
		in:          in, out: out,
	}
}

// Run aligns every pair, producing two SAM records per pair.
func (p *BwaMemProcess) Run(rt *Runtime) error {
	idx, err := rt.Index()
	if err != nil {
		return err
	}
	aligner := align.NewAligner(idx, rt.AlignerConfig)
	recs, err := engine.MapPartitions(p.name+"/bwa-mem", p.in.Data, rt.SAMCodec(),
		func(_ int, pairs []fastq.Pair) ([]sam.Record, error) {
			out := make([]sam.Record, 0, 2*len(pairs))
			for i := range pairs {
				r1, r2 := aligner.AlignPair(&pairs[i])
				out = append(out, r1, r2)
			}
			return out, nil
		})
	if err != nil {
		return err
	}
	p.out.Data = recs
	return nil
}

// MarkDuplicateProcess is the first Cleaner step (Table 2): shuffle records
// by duplicate-signature group, sort, and mark duplicates.
type MarkDuplicateProcess struct {
	baseProcess
	in  *SAMBundle
	out *SAMBundle
}

// NewMarkDuplicateProcess constructs the duplicate-marking process.
func NewMarkDuplicateProcess(name string, in, out *SAMBundle) *MarkDuplicateProcess {
	return &MarkDuplicateProcess{
		baseProcess: baseProcess{name: name, inputs: []Resource{in}, outputs: []Resource{out}},
		in:          in, out: out,
	}
}

// Run shuffles by fragment signature and marks duplicates per partition.
func (p *MarkDuplicateProcess) Run(rt *Runtime) error {
	flat, err := p.in.EnsureFlat(rt)
	if err != nil {
		return err
	}
	grouped, err := engine.PartitionBy(p.name+"/group", flat, rt.NumPartitions,
		func(r sam.Record) int { return cleaner.GroupKey(&r) })
	if err != nil {
		return err
	}
	marked, err := engine.MapPartitions(p.name+"/mark", grouped, rt.SAMCodec(),
		func(_ int, recs []sam.Record) ([]sam.Record, error) {
			out := append([]sam.Record(nil), recs...)
			cleaner.SortByCoordinate(out)
			cleaner.MarkDuplicates(out)
			return out, nil
		})
	if err != nil {
		return err
	}
	p.out.Data = marked
	// Each partition is coordinate-sorted, but the partitions are hash
	// groups, so the collected records are not: the header says unsorted.
	if p.out.Header == nil && p.in.Header != nil {
		p.out.Header = p.in.Header.Clone(sam.Unsorted)
	}
	return nil
}

// splitFactor × the median partition load is §4.4 step 3's split threshold.
const splitFactor = 2.0

// ReadRepartitionerProcess (Table 2's ReadRepartitioner, §4.4's
// RepartitionInfoProducer) builds the PartitionInfo: equal-length base
// partitions, a read census via a distributed reduce, and splits of
// overloaded partitions.
type ReadRepartitionerProcess struct {
	baseProcess
	ins []*SAMBundle
	out *PartitionInfoBundle
}

// NewReadRepartitionerProcess constructs the repartitioner over the given
// SAM inputs.
func NewReadRepartitionerProcess(name string, ins []*SAMBundle, out *PartitionInfoBundle) *ReadRepartitionerProcess {
	inputs := make([]Resource, len(ins))
	for i, b := range ins {
		inputs[i] = b
	}
	return &ReadRepartitionerProcess{
		baseProcess: baseProcess{name: name, inputs: inputs, outputs: []Resource{out}},
		ins:         ins, out: out,
	}
}

// Run builds the PartitionInfo and broadcasts it (§4.4 step 2 creates
// broadcast variables from the contig start-ID structure).
func (p *ReadRepartitionerProcess) Run(rt *Runtime) error {
	info, err := NewPartitionInfo(rt.Ref.Lengths(), rt.PartitionLen)
	if err != nil {
		return err
	}
	// Census: reads per base partition (engine.CountByKey: one action stage,
	// each task emitting one (partition, count) pair per locally observed base
	// partition, summed on the driver).
	counts := map[int]int{}
	baseID := func(r sam.Record) int {
		if r.RefID < 0 {
			return 0
		}
		return info.BaseID(int(r.RefID), int(r.Pos))
	}
	for _, in := range p.ins {
		flat, err := in.EnsureFlat(rt)
		if err != nil {
			return err
		}
		// The census keys on RefID/Pos only: with ReadsOnly(FieldCoord) a
		// columnar-stored input decodes just the coord column and prunes
		// name/seq/qual/tags. On a non-columnar input the mask is a no-op.
		c, err := engine.CountByKey(p.name+"/census", flat, baseID, engine.ReadsOnly(colfmt.FieldCoord))
		if err != nil {
			return err
		}
		for k, v := range c {
			counts[k] += v
		}
	}
	// Threshold: splitFactor × the median reads per non-empty partition.
	// The median reflects typical load — hotspot partitions would inflate a
	// mean and hide themselves from splitting (§4.4's segmentation threshold
	// is set by the driver after the census).
	if rt.DynamicRepartition && len(counts) > 0 {
		all := make([]int, 0, len(counts))
		for _, v := range counts {
			all = append(all, v)
		}
		sort.Ints(all)
		threshold := max(float64(all[len(all)/2])*splitFactor, 1)
		for part, v := range counts {
			if float64(v) > threshold {
				splits := int(float64(v)/threshold) + 1
				if err := info.Split(part, splits); err != nil {
					return err
				}
			}
		}
	}
	engine.NewBroadcast(rt.Engine, p.name+"/broadcast-partition-info", info,
		int64(16*(info.NumBasePartitions()+len(info.StartID))))
	p.out.Info = info
	return nil
}

// partitionBase carries what the partition Processes (IndelRealign, BQSR,
// HaplotypeCaller) share: the SAM input and the PartitionInfo they partition
// it by.
type partitionBase struct {
	baseProcess
	samIn  *SAMBundle
	infoIn *PartitionInfoBundle
}

// newPartitionBase declares a partition Process reading info and in.
func newPartitionBase(name string, info *PartitionInfoBundle, in *SAMBundle, out Resource) partitionBase {
	return partitionBase{
		baseProcess: baseProcess{name: name, inputs: []Resource{info, in}, outputs: []Resource{out}},
		samIn:       in, infoIn: info,
	}
}

// partitioned resolves the records the Process reads, partition p holding
// those of info.Interval(p); it is where the Fig 7 decision is made. An
// optimized pipeline reads an input already partitioned by this Process's
// PartitionInfo as it is (Fig 7b: the SAM records are not re-shuffled).
// Otherwise the records are partitioned afresh (Fig 7a). A released input
// returns its release error.
func (p *partitionBase) partitioned(rt *Runtime) (*engine.Dataset[sam.Record], error) {
	if err := p.infoIn.released(); err != nil {
		return nil, err
	}
	info := p.infoIn.Info
	if info == nil {
		return nil, fmt.Errorf("core: process %s: no partition info", p.name)
	}
	in := p.samIn
	flat, err := in.EnsureFlat(rt)
	if err != nil {
		return nil, err
	}
	if rt.Optimize && in.info == info {
		return flat, nil
	}
	return partitionSAM(rt, p.name, flat, info)
}

// publish stores a partition Process's result on its SAM output, with the
// PartitionInfo it is partitioned by. A position partition holds one
// coordinate-sorted run per partition its records were shuffled out of, so
// the header says unsorted.
func (p *partitionBase) publish(out *SAMBundle, data *engine.Dataset[sam.Record]) {
	out.Data, out.info = data, p.infoIn.Info
	if out.Header == nil && p.samIn.Header != nil {
		out.Header = p.samIn.Header.Clone(sam.Unsorted)
	}
}

// IndelRealignProcess adjusts alignments around candidate indels (Table 2).
type IndelRealignProcess struct {
	partitionBase
	out *SAMBundle
}

// NewIndelRealignProcess constructs the realignment process.
func NewIndelRealignProcess(name string, info *PartitionInfoBundle, in, out *SAMBundle) *IndelRealignProcess {
	return &IndelRealignProcess{
		partitionBase: newPartitionBase(name, info, in, out),
		out:           out,
	}
}

// Run realigns each partition.
func (p *IndelRealignProcess) Run(rt *Runtime) error {
	in, err := p.partitioned(rt)
	if err != nil {
		return err
	}
	sc := rt.AlignerConfig.Scoring
	// The output carries no codec. BQSR persists these records and reads
	// them in both its passes: under StoreSerialized a codec would encode
	// them once and decode them twice. A reader that shuffles them again
	// attaches the codec for the shuffle (partitionSAM).
	next, err := engine.MapPartitions(p.name+"/realign", in, nil,
		func(_ int, recs []sam.Record) ([]sam.Record, error) {
			out := append([]sam.Record(nil), recs...)
			cleaner.RealignIndels(out, rt.Ref, sc)
			return out, nil
		})
	if err != nil {
		return err
	}
	p.publish(p.out, next)
	return nil
}

// BaseRecalibrationProcess adjusts base quality scores (Table 2). Pass 1
// builds covariate tables per partition and reduces them on the driver; the
// merged table broadcast is the serial Collect step of §5.2.2. Pass 2
// rewrites qualities in parallel.
type BaseRecalibrationProcess struct {
	partitionBase
	out *SAMBundle
}

// NewBaseRecalibrationProcess constructs the BQSR process.
func NewBaseRecalibrationProcess(name string, info *PartitionInfoBundle, in, out *SAMBundle) *BaseRecalibrationProcess {
	return &BaseRecalibrationProcess{
		partitionBase: newPartitionBase(name, info, in, out),
		out:           out,
	}
}

// Run executes the two BQSR passes.
func (p *BaseRecalibrationProcess) Run(rt *Runtime) error {
	in, err := p.partitioned(rt)
	if err != nil {
		return err
	}
	// Both passes read the records, on either side of the Reduce that merges
	// the tables, and the engine counts no readers: materialize them once
	// here (Spark's persist) so pass 2 does not compute them again.
	if err := in.Force(); err != nil {
		return err
	}
	// Pass 1: per-partition covariate tables, partition p masking the known
	// variants that start in it.
	known := knownByPartition(rt, p.infoIn.Info)
	tables, err := engine.MapPartitions(p.name+"/count-covariates", in, nil,
		func(part int, recs []sam.Record) ([]*cleaner.RecalTable, error) {
			mask := knownSitesFunc(rt, known[part])
			return []*cleaner.RecalTable{cleaner.BuildRecalTable(recs, rt.Ref, mask)}, nil
		})
	if err != nil {
		return err
	}
	merged, found, err := engine.Reduce(p.name+"/collect", tables,
		func(a, b *cleaner.RecalTable) *cleaner.RecalTable { return a.Merge(b) })
	if err != nil {
		return err
	}
	if !found {
		merged = &cleaner.RecalTable{}
	}
	// The multi-gigabyte mask table broadcast of §5.2.2: the serial step
	// that throttles BQSR's parallel efficiency.
	bc := engine.NewBroadcast(rt.Engine, p.name+"/broadcast-mask-table", merged, merged.SizeBytes())
	// Pass 2: apply.
	next, err := engine.MapPartitions(p.name+"/apply-recalibration", in, rt.SAMCodec(),
		func(_ int, recs []sam.Record) ([]sam.Record, error) {
			out := append([]sam.Record(nil), recs...)
			return out, cleaner.ApplyRecalibration(out, bc.Value)
		})
	if err != nil {
		return err
	}
	p.publish(p.out, next)
	return nil
}

// knownByPartition groups rt.Known by the final partition ID of each
// variant's start, or partition 0 when the reference or info lacks its contig.
func knownByPartition(rt *Runtime, info *PartitionInfo) [][]vcf.Record {
	known := make([][]vcf.Record, info.NumPartitions())
	for _, v := range rt.Known {
		p := 0
		if contig, ok := rt.Ref.ContigID(v.Chrom); ok {
			p = max(info.FinalID(contig, v.Pos), 0)
		}
		known[p] = append(known[p], v)
	}
	return known
}

// knownSitesFunc builds a mask over the partition's known variants: the
// covered (contig, position) keys, sorted, probed by binary search — a
// handful of sites per partition here, and memory by site count rather than
// by span whatever the partitioning.
func knownSitesFunc(rt *Runtime, known []vcf.Record) cleaner.KnownSites {
	var sites []int64
	for _, v := range known {
		contig, ok := rt.Ref.ContigID(v.Chrom)
		if !ok {
			continue
		}
		for off := 0; off < len(v.Ref); off++ {
			sites = append(sites, int64(contig)<<40|int64(v.Pos+off))
		}
	}
	if len(sites) == 0 {
		return nil
	}
	slices.Sort(sites)
	return func(contig, pos int) bool {
		_, found := slices.BinarySearch(sites, int64(contig)<<40|int64(pos))
		return found
	}
}

// HaplotypeCallerProcess calls variants per partition via local assembly and
// the pair-HMM (Table 2).
type HaplotypeCallerProcess struct {
	partitionBase
	out     *VCFBundle
	useGVCF bool
}

// NewHaplotypeCallerProcess constructs the caller process.
func NewHaplotypeCallerProcess(name string, info *PartitionInfoBundle, in *SAMBundle, out *VCFBundle, useGVCF bool) *HaplotypeCallerProcess {
	return &HaplotypeCallerProcess{
		partitionBase: newPartitionBase(name, info, in, out),
		out:           out,
		useGVCF:       useGVCF,
	}
}

// Run calls variants in every partition, restricting emitted records to
// regions owned by the partition's interval so neighbours don't double-call.
func (p *HaplotypeCallerProcess) Run(rt *Runtime) error {
	in, err := p.partitioned(rt)
	if err != nil {
		return err
	}
	info, cfg := p.infoIn.Info, rt.CallerConfig
	calls, err := engine.MapPartitions(p.name+"/haplotype-caller", in, nil,
		func(part int, recs []sam.Record) ([]vcf.Record, error) {
			iv, _ := info.Interval(part)
			// Each active region is genotyped by the partition owning its
			// midpoint, so a region crossing a boundary is not recomputed by
			// the neighbour.
			var keep func(genome.Interval) bool
			if iv.Len() > 0 {
				keep = func(region genome.Interval) bool {
					return iv.Contains(region.Contig, (region.Start+region.End)/2)
				}
			}
			// Every variant of an owned region is emitted: regions are owned
			// by exactly one partition, and the driver-side collect dedupes
			// the rare same-site calls from adjacent partitions' distinct
			// regions.
			calls := caller.CallVariantsFiltered(recs, rt.Ref, cfg, keep)
			if p.useGVCF && iv.Len() > 0 {
				blocks := caller.ReferenceBlocks(recs, rt.Ref, iv, calls, cfg.MinActiveDepth)
				calls = caller.MergeGVCF(calls, blocks)
			}
			return calls, nil
		})
	if err != nil {
		return err
	}
	p.out.Data = calls
	if p.out.Header == nil {
		p.out.Header = vcf.NewHeader(refNames(rt), rt.Ref.Lengths(), "sample")
	}
	return nil
}

func refNames(rt *Runtime) []string {
	names := make([]string, rt.Ref.NumContigs())
	for i := range names {
		names[i] = rt.Ref.Contigs[i].Name
	}
	return names
}

// CollectVCF gathers and sorts the final call set (the driver-side read of
// the ResultVCF resource).
func CollectVCF(rt *Runtime, b *VCFBundle) ([]vcf.Record, error) {
	data, err := b.dataset()
	if err != nil {
		return nil, err
	}
	// Stored calls free the caller's input, which a lazy handle would pin.
	if err := data.Force(); err != nil {
		return nil, err
	}
	out, err := engine.Collect(b.ResourceName()+"/collect", data)
	if err != nil {
		return nil, err
	}
	// Dedupe identical calls from adjacent partitions: a partition's reads
	// run past its boundary, so two partitions' distinct active regions can
	// call the same site.
	return vcf.SortDedup(out), nil
}
