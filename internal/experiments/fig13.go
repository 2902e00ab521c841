package experiments

import (
	"fmt"

	"github.com/gpf-go/gpf/internal/baseline"
	"github.com/gpf-go/gpf/internal/cluster"
	"github.com/gpf-go/gpf/internal/stats"
	"github.com/gpf-go/gpf/internal/workload"
)

// Fig13Result reproduces Figure 13: the resource-utilization profile (disk
// and network throughput, CPU usage) of the WGS run on the 2048-core
// cluster, annotated by pipeline phase.
type Fig13Result struct {
	Points []stats.UtilPoint
	// PhaseOf maps each point index to the pipeline phase active then.
	Phases []string
	// MeanCPUUtil summarizes the CPU-bound conclusion of §5.3.2.
	MeanCPUUtil float64
}

// Fig13 simulates the GPF run at 2048 cores and samples the utilization
// timeline.
func Fig13(runs *Runs) (*Fig13Result, error) {
	run, err := runs.Get(workload.WGS, baseline.GPFOptions())
	if err != nil {
		return nil, err
	}
	sim := cluster.Simulate(run.trace(4096), cluster.PaperCluster(), 2048, cluster.SparkOptions())
	points := stats.Timeline(sim, sim.Cores, 48)
	res := &Fig13Result{Points: points}
	var cpuSum float64
	busy := 0
	for _, p := range points {
		res.Phases = append(res.Phases, phaseOf(p.Stage))
		if p.CPUUtil > 0 {
			cpuSum += p.CPUUtil
			busy++
		}
	}
	if busy > 0 {
		res.MeanCPUUtil = cpuSum / float64(busy)
	}
	return res, nil
}

// Format renders the timeline rows.
func (r *Fig13Result) Format() []string {
	out := []string{row("Figure 13: t(min)", "phase", "CPU util", "disk MB/s", "net MB/s")}
	for i, p := range r.Points {
		out = append(out, row(
			fmt.Sprintf("%.1f", minutes(p.T)),
			fmt.Sprintf("%8s", r.Phases[i]),
			fmt.Sprintf("%7.0f%%", 100*p.CPUUtil),
			fmt.Sprintf("%9.0f", p.DiskMBps),
			fmt.Sprintf("%8.0f", p.NetMBps),
		))
	}
	out = append(out, fmt.Sprintf("mean CPU utilization while busy: %.0f%%", 100*r.MeanCPUUtil))
	return out
}
