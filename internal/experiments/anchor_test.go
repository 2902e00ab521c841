package experiments

import (
	"math"
	"testing"

	"github.com/gpf-go/gpf/internal/baseline"
	"github.com/gpf-go/gpf/internal/cluster"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/workload"
)

// TestFig10IndependentOfAlignerSpeed: paper-scale aligner cost is anchored
// to BWA-MEM's rate, so a Go aligner ten times faster — the same run with
// every Aligner task wall multiplied by 0.1 — must produce the same GPF row.
func TestFig10IndependentOfAlignerSpeed(t *testing.T) {
	s := SmallScale()
	d := s.dataset(workload.WGS)
	run, err := baseline.RunWGS(s.newRuntime(d), d.Pairs, baseline.GPFOptions())
	if err != nil {
		t.Fatal(err)
	}
	fast := engine.Metrics{Stages: append([]engine.StageMetrics(nil), run.Metrics.Stages...)}
	scaled := 0
	for i, st := range fast.Stages {
		if phaseOf(st.Name) != "Aligner" {
			continue
		}
		fast.Stages[i].Tasks = append([]engine.TaskMetrics(nil), st.Tasks...)
		for j := range fast.Stages[i].Tasks {
			fast.Stages[i].Tasks[j].Wall /= 10
			scaled++
		}
	}
	if scaled == 0 {
		t.Fatal("no Aligner tasks in the measured run")
	}
	want := fig10FromTraces(paperTrace(run.Metrics, d, 4096), cluster.Trace{})
	got := fig10FromTraces(paperTrace(fast, d, 4096), cluster.Trace{})
	for i, w := range want.Points {
		g := got.Points[i]
		// Integer-nanosecond walls lose up to 1 ns each to the division.
		if diff := math.Abs(float64(g.GPFTime-w.GPFTime)) / float64(w.GPFTime); diff > 1e-4 {
			t.Fatalf("%d cores: GPF %v with the aligner 10x faster, %v without", w.Cores, g.GPFTime, w.GPFTime)
		}
	}
	if math.Abs(got.GPFEfficiency-want.GPFEfficiency) > 1e-4 {
		t.Fatalf("GPF efficiency %.6f with the aligner 10x faster, %.6f without", got.GPFEfficiency, want.GPFEfficiency)
	}
}
