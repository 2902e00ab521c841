// Custom-Process demo: the paper's programming model (§3) lets users build
// personalized pipelines by defining their own Processes over Resources.
// This example adds two user Processes to the standard pipeline:
//
//   - MapqFilterProcess drops low-confidence alignments between the Aligner
//     and the Cleaner (a common pipeline customization), and
//   - CoverageStatsProcess computes a per-contig depth summary as a side
//     output, demonstrating Processes with non-SAM outputs.
//
// Both integrate with the DAG scheduler exactly like the built-ins: declare
// inputs and outputs, implement Run, and let Pipeline.Run order everything.
package main

import (
	"fmt"
	"log"

	"github.com/gpf-go/gpf/pkg/gpf"
)

// MapqFilterProcess removes mapped records whose MAPQ is below a threshold.
type MapqFilterProcess struct {
	name    string
	minMapQ uint8
	in, out *gpf.SAMBundle
}

// ProcessName implements gpf.Process.
func (p *MapqFilterProcess) ProcessName() string { return p.name }

// Inputs implements gpf.Process.
func (p *MapqFilterProcess) Inputs() []gpf.Resource { return []gpf.Resource{p.in} }

// Outputs implements gpf.Process.
func (p *MapqFilterProcess) Outputs() []gpf.Resource { return []gpf.Resource{p.out} }

// Run filters the flat record dataset.
func (p *MapqFilterProcess) Run(rt *gpf.Runtime) error {
	flat, err := p.in.EnsureFlat(rt)
	if err != nil {
		return err
	}
	minQ := p.minMapQ
	filtered, err := gpf.Filter(p.name+"/filter", flat, func(r gpf.SAMRecord) bool {
		return r.Unmapped() || r.MapQ >= minQ
	})
	if err != nil {
		return err
	}
	p.out.Data = filtered
	p.out.Header = p.in.Header
	return nil
}

// CoverageStatsProcess is a Resource+Process pair producing per-contig mean
// depth. Its output Resource is a plain struct satisfying gpf.Resource via
// embedding of a defined SAM bundle would be overkill; instead we keep the
// result on the process and expose it after Run.
type CoverageStatsProcess struct {
	name string
	in   *gpf.SAMBundle
	out  *gpf.SAMBundle // passthrough so downstream Processes can depend on us
	// PerContig[i] is the mean depth of contig i, filled by Run.
	PerContig []float64
}

// ProcessName implements gpf.Process.
func (p *CoverageStatsProcess) ProcessName() string { return p.name }

// Inputs implements gpf.Process.
func (p *CoverageStatsProcess) Inputs() []gpf.Resource { return []gpf.Resource{p.in} }

// Outputs implements gpf.Process.
func (p *CoverageStatsProcess) Outputs() []gpf.Resource { return []gpf.Resource{p.out} }

// Run reduces per-contig aligned base counts and converts them to depth.
func (p *CoverageStatsProcess) Run(rt *gpf.Runtime) error {
	flat, err := p.in.EnsureFlat(rt)
	if err != nil {
		return err
	}
	// The count below and the pass-through both read flat, and the engine
	// does not count readers: materialize it once here (Spark's persist, as
	// BaseRecalibrationProcess does), or the aligner runs again for the
	// pass-through's reader.
	if err := flat.Force(); err != nil {
		return err
	}
	type counts struct{ bases []int64 }
	n := rt.Ref.NumContigs()
	partials, err := gpf.MapPartitions(p.name+"/count", flat, nil,
		func(_ int, recs []gpf.SAMRecord) ([]counts, error) {
			c := counts{bases: make([]int64, n)}
			for i := range recs {
				if recs[i].Unmapped() {
					continue
				}
				c.bases[recs[i].RefID] += int64(recs[i].Cigar.RefLen())
			}
			return []counts{c}, nil
		})
	if err != nil {
		return err
	}
	total, found, err := gpf.Reduce(p.name+"/reduce", partials, func(a, b counts) counts {
		for i := range a.bases {
			a.bases[i] += b.bases[i]
		}
		return a
	})
	if err != nil {
		return err
	}
	p.PerContig = make([]float64, n)
	if found {
		for i, l := range rt.Ref.Lengths() {
			if l > 0 {
				p.PerContig[i] = float64(total.bases[i]) / float64(l)
			}
		}
	}
	// Pass the data through unchanged.
	p.out.Data = flat
	p.out.Header = p.in.Header
	return nil
}

func main() {
	if _, err := run(); err != nil {
		log.Fatal(err)
	}
}

// run builds and runs the custom pipeline, prints its results, and returns
// the engine it ran on.
func run() (*gpf.Engine, error) {
	ref := gpf.SynthesizeGenome(gpf.DefaultSynthConfig(31, 50000, 2))
	donor := gpf.MutateGenome(ref, gpf.DefaultMutateConfig(32))
	reads := gpf.SimulateReads(donor, gpf.DefaultSimConfig(33, 10))

	eng := gpf.NewEngine(4)
	rt := gpf.NewRuntime(eng, ref)
	rt.PartitionLen = 6000
	pipeline := gpf.NewPipeline("custom", rt)

	// Standard aligner...
	fastqBundle := gpf.DefinedFASTQPair("reads", gpf.PairsToRDD(rt, reads, 8))
	aligned := gpf.UndefinedSAM("aligned", nil)
	pipeline.AddProcess(gpf.NewBwaMemProcess("align", fastqBundle, aligned))

	// ...then the user-defined steps...
	filtered := gpf.UndefinedSAM("filtered", nil)
	pipeline.AddProcess(&MapqFilterProcess{name: "mapq-filter", minMapQ: 20, in: aligned, out: filtered})
	withStats := gpf.UndefinedSAM("withStats", nil)
	stats := &CoverageStatsProcess{name: "coverage-stats", in: filtered, out: withStats}
	pipeline.AddProcess(stats)

	// ...then the standard cleaner step, consuming the user output.
	deduped := gpf.UndefinedSAM("deduped", nil)
	pipeline.AddProcess(gpf.NewMarkDuplicateProcess("markdup", withStats, deduped))

	if err := pipeline.Run(); err != nil {
		return nil, err
	}
	fmt.Printf("executed: %v\n", pipeline.ExecutionOrder())
	for i, d := range stats.PerContig {
		fmt.Printf("contig %s: mean depth %.1fx\n", ref.Contigs[i].Name, d)
	}
	recs, err := gpf.Collect("final", deduped.Data)
	if err != nil {
		return nil, err
	}
	dups := 0
	for i := range recs {
		if recs[i].Duplicate() {
			dups++
		}
	}
	fmt.Printf("final records: %d (%d duplicates marked)\n", len(recs), dups)
	return eng, nil
}
