package experiments

import (
	"fmt"

	"github.com/gpf-go/gpf/internal/baseline"
	"github.com/gpf-go/gpf/internal/cluster"
	"github.com/gpf-go/gpf/internal/stats"
	"github.com/gpf-go/gpf/internal/workload"
)

// Fig12Phase is the blocked-time bound for one pipeline phase.
type Fig12Phase struct {
	Phase          string
	WithoutDisk    float64 // max fractional JCT reduction, disk eliminated
	WithoutNetwork float64
}

// Fig12Workload is one workload's analysis.
type Fig12Workload struct {
	Workload        string
	Phases          []Fig12Phase
	ShuffleFraction float64 // fraction of time moving shuffle data to/from disk
	GCFraction      float64
}

// Fig12Result reproduces Figure 12: the improvement in job completion time
// from eliminating all time blocked on disk or network, per phase and per
// workload — the paper's evidence that GPF is not I/O bound (max ~2.7%
// disk, ~1.4% network).
type Fig12Result struct {
	Workloads []Fig12Workload
}

// Fig12 applies blocked-time analysis to GPF's run of each of the three
// workloads.
func Fig12(runs *Runs) (*Fig12Result, error) {
	cfg := cluster.PaperCluster()
	res := &Fig12Result{}
	for _, kind := range []workload.Kind{workload.WGS, workload.WES, workload.GenePanel} {
		run, err := runs.Get(kind, baseline.GPFOptions())
		if err != nil {
			return nil, err
		}
		full := run.trace(2048)

		wl := Fig12Workload{Workload: kind.String()}
		for _, phase := range []string{"Aligner", "Cleaner", "Caller"} {
			var tr cluster.Trace
			for _, st := range full.Stages {
				if phaseOf(st.Name) == phase {
					tr.Stages = append(tr.Stages, st)
				}
			}
			if len(tr.Stages) == 0 {
				continue
			}
			bt := stats.BlockedTime(tr, cfg, 2048, cluster.SparkOptions())
			wl.Phases = append(wl.Phases, Fig12Phase{
				Phase:          phase,
				WithoutDisk:    bt.DiskImprovement,
				WithoutNetwork: bt.NetImprovement,
			})
		}
		whole := stats.BlockedTime(full, cfg, 2048, cluster.SparkOptions())
		wl.ShuffleFraction = whole.ShuffleFraction
		gcTotal := run.Metrics.TotalGCPause()
		if taskTotal := run.Metrics.TotalTaskTime(); taskTotal > 0 {
			wl.GCFraction = float64(gcTotal) / float64(taskTotal+gcTotal)
		}
		res.Workloads = append(res.Workloads, wl)
	}
	return res, nil
}

// MaxDiskImprovement returns the largest disk bound across all workloads
// and phases (the paper reports 2.7% as the median-max).
func (r *Fig12Result) MaxDiskImprovement() float64 {
	best := 0.0
	for _, wl := range r.Workloads {
		for _, p := range wl.Phases {
			if p.WithoutDisk > best {
				best = p.WithoutDisk
			}
		}
	}
	return best
}

// Format renders the per-phase reductions per workload.
func (r *Fig12Result) Format() []string {
	out := []string{"Figure 12: JCT reduction from eliminating blocked time"}
	for _, wl := range r.Workloads {
		out = append(out, fmt.Sprintf("%s (shuffle-data fraction %.2f%%, GC fraction %.2f%%)",
			wl.Workload, 100*wl.ShuffleFraction, 100*wl.GCFraction))
		for _, p := range wl.Phases {
			out = append(out, row("  "+p.Phase,
				fmt.Sprintf("without disk %5.2f%%", 100*p.WithoutDisk),
				fmt.Sprintf("without network %5.2f%%", 100*p.WithoutNetwork)))
		}
	}
	out = append(out, fmt.Sprintf("max disk-elimination improvement: %.2f%%", 100*r.MaxDiskImprovement()))
	return out
}
