package cluster

import (
	"runtime"
	"time"

	"github.com/gpf-go/gpf/internal/engine"
)

// LocalConfig models the machine an mproc job actually runs on: W processes
// on one host, each with slots cores, buckets crossing process boundaries
// over loopback TCP. Loopback moves several GB/s and there is no disk in the
// shuffle path, so the per-"node" network share is high and disk is fast
// enough to never dominate.
func LocalConfig(procs, slots int) Config {
	if procs < 1 {
		procs = 1
	}
	if slots < 1 {
		slots = runtime.GOMAXPROCS(0)
	}
	return Config{
		Nodes:        procs,
		CoresPerNode: slots,
		Disk:         DiskModel{BandwidthMBps: 2000, LatencyMs: 0.1},
		Net:          NetworkModel{BandwidthMBpsPerNode: 4000, LatencyUs: 20},
	}
}

// Prediction is one point of a predicted scaling curve.
type Prediction struct {
	Procs    int
	Cores    int
	Makespan time.Duration
	// Speedup is relative to the first (smallest) requested point.
	Speedup float64
}

// PredictScaling replays the metrics of an in-process run through the cluster
// model at each process count, with slots task slots per process — the
// planning oracle's answer to "what would -backend=mproc -procs=W buy?"
// before paying for the real multi-process run. Shuffle bytes that stay
// inside a process are still charged to the model's network (the model
// cannot see ownership), so predictions are conservative on transport cost.
func PredictScaling(m engine.Metrics, slots int, procs []int) []Prediction {
	tr := TraceFromMetrics(m, 1, 1)
	opt := SparkOptions()
	out := make([]Prediction, 0, len(procs))
	for _, w := range procs {
		if w < 1 {
			w = 1
		}
		cfg := LocalConfig(w, slots)
		res := Simulate(tr, cfg, w*cfg.CoresPerNode, opt)
		out = append(out, Prediction{Procs: w, Cores: res.Cores, Makespan: res.Makespan})
	}
	if len(out) > 0 && out[0].Makespan > 0 {
		base := out[0].Makespan
		for i := range out {
			if out[i].Makespan > 0 {
				out[i].Speedup = float64(base) / float64(out[i].Makespan)
			}
		}
	}
	return out
}
