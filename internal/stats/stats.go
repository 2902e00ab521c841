// Package stats provides the measurement machinery of §5.3: blocked-time
// analysis (after Ousterhout et al., NSDI'15 — the method the paper uses to
// bound the benefit of removing disk/network time), resource-utilization
// timelines (Fig 13), histograms (Fig 5) and parallel-efficiency helpers.
package stats

import (
	"time"

	"github.com/gpf-go/gpf/internal/cluster"
)

// BlockedTimeResult is the outcome of a blocked-time analysis at one scale.
type BlockedTimeResult struct {
	Base      time.Duration
	NoDisk    time.Duration
	NoNetwork time.Duration
	// DiskImprovement is the fractional JCT reduction from eliminating all
	// time blocked on disk ((base-noDisk)/base); NetImprovement likewise.
	DiskImprovement float64
	NetImprovement  float64
	// ShuffleFraction is the fraction of task time spent moving shuffle
	// data.
	ShuffleFraction float64
}

// BlockedTime runs the trace three times through the simulator — as-is,
// without disk time, without network time — and reports the improvement
// bounds of §5.3.1. opts carries the execution model (e.g. the page-cache
// block fractions of cluster.SparkOptions); its NoDisk/NoNet fields are
// overridden per run.
func BlockedTime(tr cluster.Trace, cfg cluster.Config, cores int, opts cluster.Options) BlockedTimeResult {
	baseOpts, noDiskOpts, noNetOpts := opts, opts, opts
	baseOpts.NoDisk, baseOpts.NoNet = false, false
	noDiskOpts.NoDisk, noDiskOpts.NoNet = true, false
	noNetOpts.NoDisk, noNetOpts.NoNet = false, true
	base := cluster.Simulate(tr, cfg, cores, baseOpts)
	noDisk := cluster.Simulate(tr, cfg, cores, noDiskOpts)
	noNet := cluster.Simulate(tr, cfg, cores, noNetOpts)
	res := BlockedTimeResult{
		Base:      base.Makespan,
		NoDisk:    noDisk.Makespan,
		NoNetwork: noNet.Makespan,
	}
	if base.Makespan > 0 {
		res.DiskImprovement = float64(base.Makespan-noDisk.Makespan) / float64(base.Makespan)
		res.NetImprovement = float64(base.Makespan-noNet.Makespan) / float64(base.Makespan)
	}
	busy := base.CPUTime + base.DiskTime + base.NetTime
	if busy > 0 {
		res.ShuffleFraction = float64(base.DiskTime+base.NetTime) / float64(busy)
	}
	return res
}

// UtilPoint is one sample of the Fig 13 resource-utilization timeline.
type UtilPoint struct {
	T        time.Duration
	Stage    string
	CPUUtil  float64 // busy cores / total cores in [0,1]
	DiskMBps float64 // aggregate disk throughput
	NetMBps  float64 // aggregate network throughput
}

// Timeline samples a simulated run into n utilization points. Within each
// stage, utilization is the stage's busy time spread over its makespan —
// the same aggregate view as the paper's cluster monitoring plots.
func Timeline(res cluster.Result, cores int, n int) []UtilPoint {
	if n <= 0 || res.Makespan <= 0 {
		return nil
	}
	points := make([]UtilPoint, 0, n)
	step := res.Makespan / time.Duration(n)
	if step <= 0 {
		step = 1
	}
	for i := 0; i < n; i++ {
		t := step * time.Duration(i)
		// Find the stage active at t.
		var active *cluster.StageSim
		for s := range res.Stages {
			st := &res.Stages[s]
			if t >= st.Start && t < st.Start+st.Makespan {
				active = st
				break
			}
		}
		p := UtilPoint{T: t}
		if active != nil && active.Makespan > 0 {
			p.Stage = active.Name
			span := active.Makespan.Seconds()
			p.CPUUtil = active.CPUTime.Seconds() / (span * float64(cores))
			if p.CPUUtil > 1 {
				p.CPUUtil = 1
			}
			ioBytes := float64(active.Bytes)
			p.DiskMBps = ioBytes / span / 1e6
			p.NetMBps = ioBytes / 2 / span / 1e6
		}
		points = append(points, p)
	}
	return points
}

// Histogram counts integer-valued observations into unit bins over
// [min, max]; out-of-range values clamp to the edge bins.
type Histogram struct {
	Min, Max int
	Counts   []int64
	Total    int64
}

// NewHistogram allocates a histogram over [min, max].
func NewHistogram(min, max int) *Histogram {
	if max < min {
		min, max = max, min
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int64, max-min+1)}
}

// Add records one observation.
func (h *Histogram) Add(v int) {
	if v < h.Min {
		v = h.Min
	}
	if v > h.Max {
		v = h.Max
	}
	h.Counts[v-h.Min]++
	h.Total++
}

// Percent returns the share of observations in bin v (0 when empty).
func (h *Histogram) Percent(v int) float64 {
	if h.Total == 0 || v < h.Min || v > h.Max {
		return 0
	}
	return float64(h.Counts[v-h.Min]) / float64(h.Total) * 100
}

// MassWithin returns the fraction of observations with |v| <= radius of
// center.
func (h *Histogram) MassWithin(center, radius int) float64 {
	if h.Total == 0 {
		return 0
	}
	var n int64
	for i, c := range h.Counts {
		v := h.Min + i
		if v >= center-radius && v <= center+radius {
			n += c
		}
	}
	return float64(n) / float64(h.Total)
}
