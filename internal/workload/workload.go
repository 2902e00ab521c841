// Package workload synthesizes the evaluation datasets of §5.1 at laptop
// scale: whole-genome (WGS), whole-exome (WES) and gene-panel sequencing
// profiles, and the coverage-hotspot structure (§4.4) that drives the
// load-balance results.
package workload

import (
	"fmt"

	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/vcf"
)

// Kind selects a sequencing workload profile.
type Kind int

// The three workloads of Fig 12.
const (
	WGS Kind = iota
	WES
	GenePanel
)

// String names the workload.
func (k Kind) String() string {
	switch k {
	case WES:
		return "WES"
	case GenePanel:
		return "GenePanel"
	default:
		return "WGS"
	}
}

// Profile describes one workload's shape.
type Profile struct {
	Kind Kind
	// GenomeLen is the synthetic reference size in bases.
	GenomeLen int
	// Contigs is the chromosome count.
	Contigs int
	// Coverage is the mean sequencing depth over the targeted territory.
	Coverage float64
	// TargetFraction is the fraction of the genome that is sequenced (1 for
	// WGS; exons for WES; a few genes for panels).
	TargetFraction float64
	// HotspotCount and HotspotFactor model coverage pileups.
	HotspotCount  int
	HotspotFactor float64
}

// DefaultProfile returns laptop-scale parameters for a workload, scaled
// around genomeLen bases of reference.
func DefaultProfile(kind Kind, genomeLen int) Profile {
	switch kind {
	case WES:
		return Profile{Kind: kind, GenomeLen: genomeLen, Contigs: 2, Coverage: 40,
			TargetFraction: 0.05, HotspotCount: 2, HotspotFactor: 20}
	case GenePanel:
		return Profile{Kind: kind, GenomeLen: genomeLen, Contigs: 1, Coverage: 100,
			TargetFraction: 0.01, HotspotCount: 1, HotspotFactor: 10}
	default:
		return Profile{Kind: kind, GenomeLen: genomeLen, Contigs: 3, Coverage: 12,
			TargetFraction: 1, HotspotCount: 2, HotspotFactor: 40}
	}
}

// Dataset is one synthesized sample with its truth set.
type Dataset struct {
	Name    string
	Profile Profile
	Ref     *genome.Reference
	Donor   *genome.Donor
	Pairs   []fastq.Pair
	// Known is the known-variant database (a subset of the truth set plus
	// decoys, standing in for dbSNP).
	Known []vcf.Record
}

// Make synthesizes a dataset for the profile, deterministic in seed.
func Make(p Profile, seed int64) *Dataset {
	ref := genome.Synthesize(genome.DefaultSynthConfig(seed, p.GenomeLen, p.Contigs))
	donor := genome.Mutate(ref, genome.DefaultMutateConfig(seed+1))

	cfg := fastq.DefaultSimConfig(seed+2, p.Coverage)
	cfg.SampleName = fmt.Sprintf("%s-%d", p.Kind, seed)

	// Targeted sequencing: restrict sampling to target intervals by turning
	// the off-target territory into zero-coverage via hotspot-style target
	// windows. We emulate targeting by sampling the whole genome at reduced
	// coverage plus concentrated hotspots over the targets.
	if p.TargetFraction < 1 {
		cfg.Coverage = p.Coverage * p.TargetFraction // thin background
		targetSpan := int(float64(p.GenomeLen) * p.TargetFraction)
		if targetSpan < 1000 {
			targetSpan = 1000
		}
		per := targetSpan / max(p.HotspotCount, 1)
		for i := 0; i < p.HotspotCount; i++ {
			start := (i + 1) * p.GenomeLen / (p.HotspotCount + 2) / p.Contigs
			cfg.Hotspots = append(cfg.Hotspots, genome.Interval{
				Contig: 0, Start: start, End: start + per,
			})
		}
		cfg.HotspotFactor = 1 / p.TargetFraction
	} else {
		for i := 0; i < p.HotspotCount; i++ {
			start := (i + 1) * p.GenomeLen / (p.HotspotCount + 2) / p.Contigs
			cfg.Hotspots = append(cfg.Hotspots, genome.Interval{
				Contig: 0, Start: start, End: start + 2000,
			})
		}
		cfg.HotspotFactor = p.HotspotFactor
	}

	pairs := fastq.Simulate(donor, cfg)
	return &Dataset{
		Name:    cfg.SampleName,
		Profile: p,
		Ref:     ref,
		Donor:   donor,
		Pairs:   pairs,
		Known:   KnownSites(ref, donor, seed+3),
	}
}

// KnownSites derives a dbSNP-like database: most truth variants (common
// polymorphisms are catalogued) rendered as VCF records.
func KnownSites(ref *genome.Reference, donor *genome.Donor, seed int64) []vcf.Record {
	var out []vcf.Record
	for i, v := range donor.Truth.Variants {
		// Keep ~80% of sites, deterministically by index and seed.
		if (int64(i)+seed)%5 == 0 {
			continue
		}
		out = append(out, vcf.Record{
			Chrom: ref.Contigs[v.Contig].Name,
			Pos:   v.Pos,
			Ref:   string(v.Ref),
			Alt:   string(v.Alt),
		})
	}
	return out
}

// TruthVCF renders a dataset's full truth set as VCF records for scoring.
func (d *Dataset) TruthVCF() []vcf.Record {
	var out []vcf.Record
	for _, v := range d.Donor.Truth.Variants {
		out = append(out, vcf.Record{
			Chrom: d.Ref.Contigs[v.Contig].Name,
			Pos:   v.Pos,
			Ref:   string(v.Ref),
			Alt:   string(v.Alt),
		})
	}
	return out
}

// TotalBases returns the sequenced base count of the dataset.
func (d *Dataset) TotalBases() int64 {
	var n int64
	for i := range d.Pairs {
		n += int64(len(d.Pairs[i].R1.Seq) + len(d.Pairs[i].R2.Seq))
	}
	return n
}

// FASTQBytes returns the dataset's size in FASTQ text form.
func (d *Dataset) FASTQBytes() int64 {
	var n int64
	for i := range d.Pairs {
		n += int64(d.Pairs[i].Bytes())
	}
	return n
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
