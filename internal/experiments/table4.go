package experiments

import (
	"fmt"
	"time"

	"github.com/gpf-go/gpf/internal/baseline"
	"github.com/gpf-go/gpf/internal/cluster"
	"github.com/gpf-go/gpf/internal/workload"
)

// Table4Column is one configuration of Table 4 (redundancy elimination on or
// off) with its measured pipeline costs.
type Table4Column struct {
	Label       string
	RunningTime time.Duration // simulated at 256 cores
	StageNum    int
	CoreHours   float64
	GCTime      time.Duration
	ShuffleTime time.Duration
	ShuffleData int64
}

// Table4Result reproduces Table 4 ("Redundant Shuffle Operations"): the
// pipeline with the Fig 7 rewrite enabled versus disabled, on a 256-core
// cluster (the paper used SRR622461).
type Table4Result struct {
	Optimized Table4Column
	Redundant Table4Column
}

// Table4 simulates the runs of both configurations at 256 cores.
func Table4(runs *Runs) (*Table4Result, error) {
	runCol := func(label string, optimize bool) (Table4Column, error) {
		opts := baseline.GPFOptions()
		opts.Optimize = optimize
		run, err := runs.Get(workload.WGS, opts)
		if err != nil {
			return Table4Column{}, err
		}
		d, m := run.Data, run.Metrics
		cpuScale, byteScale := calibration(d)
		sim := cluster.Simulate(run.trace(1024), cluster.PaperCluster(), 256, cluster.SparkOptions())
		return Table4Column{
			Label:       label,
			RunningTime: sim.Makespan,
			StageNum:    m.NumStages(),
			CoreHours:   (sim.CPUTime + sim.DiskTime + sim.NetTime).Hours(),
			GCTime:      time.Duration(float64(m.TotalGCPause()) * cpuScale),
			ShuffleTime: time.Duration(float64(m.TotalShuffleTime()) * cpuScale),
			ShuffleData: int64(float64(m.TotalShuffleBytes()) * byteScale),
		}, nil
	}
	opt, err := runCol("Original", true)
	if err != nil {
		return nil, err
	}
	red, err := runCol("Redundant Calculations", false)
	if err != nil {
		return nil, err
	}
	return &Table4Result{Optimized: opt, Redundant: red}, nil
}

// Format renders the table in the paper's layout (optimized column first,
// as "Original" in the paper means the optimized GPF pipeline).
func (r *Table4Result) Format() []string {
	f := func(label string, fn func(Table4Column) string) string {
		return row(label, fmt.Sprintf("%14s", fn(r.Optimized)), fmt.Sprintf("%22s", fn(r.Redundant)))
	}
	return []string{
		row("Table 4: pipeline", "     Optimized", "Redundant Calculations"),
		f("Running Time", func(c Table4Column) string { return fmt.Sprintf("%.0fmin", minutes(c.RunningTime)) }),
		f("Stage Num.", func(c Table4Column) string { return fmt.Sprintf("%d", c.StageNum) }),
		f("Core Hour", func(c Table4Column) string { return fmt.Sprintf("%.2fh", c.CoreHours) }),
		f("GC Time", func(c Table4Column) string { return fmt.Sprintf("%.2fh", c.GCTime.Hours()) }),
		f("Shuffle Time", func(c Table4Column) string { return fmt.Sprintf("%.2fmin", minutes(c.ShuffleTime)) }),
		f("Shuffle Data", func(c Table4Column) string { return fmt.Sprintf("%.1fGB", gb(c.ShuffleData)) }),
	}
}
