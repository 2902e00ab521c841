package experiments

import (
	"fmt"
	"time"

	"github.com/gpf-go/gpf/internal/baseline"
	"github.com/gpf-go/gpf/internal/cluster"
	"github.com/gpf-go/gpf/internal/workload"
)

// Fig10Point is one core count of Figure 10.
type Fig10Point struct {
	Cores            int
	GPFTime          time.Duration
	ChurchillTime    time.Duration // zero beyond Churchill's scaling ceiling
	GPFSpeedup       float64       // versus GPF at the smallest core count
	ChurchillSpeedup float64
}

// Fig10Result reproduces Figure 10: execution time and speedup of GPF
// versus Churchill from 128 to 2048 cores, plus the parallel-efficiency
// headline (>50% at 2048 cores).
type Fig10Result struct {
	Points        []Fig10Point
	GPFEfficiency float64 // at the largest core count, relative to the smallest
}

// churchillMaxRegions is the static region count Churchill fixes at the
// start of the analysis (§5.2.1: its scalability was limited to 1024 cores).
const churchillMaxRegions = 1024

// Fig10 replays the GPF and Churchill runs across core counts.
func Fig10(runs *Runs) (*Fig10Result, error) {
	// GPF: dynamic repartition, fusion, genomic codec, from the per-task
	// median of medianRuns runs. Task granularity refined as a full-size
	// dataset would provide.
	gpf, err := runs.median(workload.WGS, baseline.GPFOptions())
	if err != nil {
		return nil, err
	}

	// Churchill: static regions (no dynamic splits), unfused, and a file
	// handoff with a serial scatter/gather merge after each tool — each
	// Process of the pipeline, in the order it ran. The region count is fixed
	// at analysis start, capping usable parallelism.
	ch, err := runs.Get(workload.WGS, baseline.ChurchillOptions())
	if err != nil {
		return nil, err
	}
	_, byteScale := calibration(ch.Data)
	perTaskFile := int64(float64(ch.Data.FASTQBytes()) * byteScale / churchillMaxRegions)
	chTrace := ch.trace(churchillMaxRegions)
	for _, tool := range ch.Order {
		chTrace.Stages = append(chTrace.Stages,
			baseline.FileHandoff(tool, churchillMaxRegions, perTaskFile, 30*time.Second))
	}
	return fig10FromTraces(gpf.trace(4096), chTrace), nil
}

// fig10FromTraces replays the two systems' paper-scale traces across the
// figure's core counts.
func fig10FromTraces(gpfTrace, chTrace cluster.Trace) *Fig10Result {
	cfg := cluster.PaperCluster()
	cores := []int{128, 256, 512, 1024, 2048}
	res := &Fig10Result{}
	var gpfBase, chBase time.Duration
	for i, c := range cores {
		g := cluster.Simulate(gpfTrace, cfg, c, cluster.SparkOptions())
		p := Fig10Point{Cores: c, GPFTime: g.Makespan}
		if c <= churchillMaxRegions {
			ch := cluster.Simulate(chTrace, cfg, c, cluster.Options{})
			p.ChurchillTime = ch.Makespan
		}
		if i == 0 {
			gpfBase, chBase = p.GPFTime, p.ChurchillTime
		}
		if p.GPFTime > 0 {
			p.GPFSpeedup = float64(gpfBase) / float64(p.GPFTime)
		}
		if p.ChurchillTime > 0 && chBase > 0 {
			p.ChurchillSpeedup = float64(chBase) / float64(p.ChurchillTime)
		}
		res.Points = append(res.Points, p)
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	res.GPFEfficiency = cluster.Efficiency(first.GPFTime, first.Cores, last.GPFTime, last.Cores)
	return res
}

// Format renders the figure's series as rows per core count.
func (r *Fig10Result) Format() []string {
	out := []string{row("Figure 10: cores", "Churchill(min)", "GPF(min)", "Churchill speedup", "GPF speedup")}
	for _, p := range r.Points {
		ch := "-"
		chs := "-"
		if p.ChurchillTime > 0 {
			ch = fmt.Sprintf("%.0f", minutes(p.ChurchillTime))
			chs = fmt.Sprintf("%.2fx", p.ChurchillSpeedup)
		}
		out = append(out, row(
			fmt.Sprintf("%d", p.Cores),
			fmt.Sprintf("%14s", ch),
			fmt.Sprintf("%8.0f", minutes(p.GPFTime)),
			fmt.Sprintf("%17s", chs),
			fmt.Sprintf("%10.2fx", p.GPFSpeedup),
		))
	}
	out = append(out, fmt.Sprintf("GPF parallel efficiency at %d cores: %.0f%%",
		r.Points[len(r.Points)-1].Cores, 100*r.GPFEfficiency))
	return out
}
