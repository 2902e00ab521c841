package experiments

import (
	"math"
	"testing"
	"time"

	"github.com/gpf-go/gpf/internal/baseline"
	"github.com/gpf-go/gpf/internal/cluster"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/workload"
)

// TestFig10IndependentOfKernelSpeed: paper-scale task CPU is anchored to the
// paper's tools, so a Go aligner ten times faster — the same run with every
// Aligner task wall multiplied by 0.1 — or Go Cleaner and Caller kernels
// twice as fast must produce the same GPF row.
func TestFig10IndependentOfKernelSpeed(t *testing.T) {
	run, err := smallRuns.Get(workload.WGS, baseline.GPFOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := fig10FromTraces(run.trace(4096), cluster.Trace{})
	for _, tc := range []struct {
		name    string
		aligner bool
		div     time.Duration
	}{
		{"aligner 10x faster", true, 10},
		{"cleaner and caller 2x faster", false, 2},
	} {
		fast := engine.Metrics{Stages: append([]engine.StageMetrics(nil), run.Metrics.Stages...)}
		scaled := 0
		for i, st := range fast.Stages {
			if (phaseOf(st.Name) == "Aligner") != tc.aligner {
				continue
			}
			fast.Stages[i].Tasks = append([]engine.TaskMetrics(nil), st.Tasks...)
			for j := range fast.Stages[i].Tasks {
				fast.Stages[i].Tasks[j].Wall /= tc.div
				scaled++
			}
		}
		if scaled == 0 {
			t.Fatalf("%s: no such tasks in the measured run", tc.name)
		}
		got := fig10FromTraces((&Run{Data: run.Data, Metrics: fast}).trace(4096), cluster.Trace{})
		for i, w := range want.Points {
			g := got.Points[i]
			// Integer-nanosecond walls lose up to 1 ns each to the division.
			if diff := math.Abs(float64(g.GPFTime-w.GPFTime)) / float64(w.GPFTime); diff > 1e-4 {
				t.Fatalf("%s: %d cores: GPF %v, %v as measured", tc.name, w.Cores, g.GPFTime, w.GPFTime)
			}
		}
		if math.Abs(got.GPFEfficiency-want.GPFEfficiency) > 1e-4 {
			t.Fatalf("%s: GPF efficiency %.6f, %.6f as measured", tc.name, got.GPFEfficiency, want.GPFEfficiency)
		}
	}
}
