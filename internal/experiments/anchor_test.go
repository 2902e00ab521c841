package experiments

import (
	"math"
	"slices"
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

// TestComparatorsIndependentOfEngineStages: Churchill is charged a file
// handoff per tool, not per engine stage, so the same Churchill run with its
// aligner stage split into two stages whose tasks each carry half the wall
// must produce the same Churchill row in Fig 10 and in Table 5.
func TestComparatorsIndependentOfEngineStages(t *testing.T) {
	gpf, err := smallRuns.Get(workload.WGS, baseline.GPFOptions())
	if err != nil {
		t.Fatal(err)
	}
	ch, err := smallRuns.Get(workload.WGS, baseline.ChurchillOptions())
	if err != nil {
		t.Fatal(err)
	}
	var split engine.Metrics
	for _, st := range ch.Metrics.Stages {
		if phaseOf(st.Name) != "Aligner" {
			split.Stages = append(split.Stages, st)
			continue
		}
		if st.ShuffleWriteBytes() != 0 || st.ShuffleReadBytes() != 0 {
			t.Fatalf("stage %s moves shuffle bytes; split a compute-only stage", st.Name)
		}
		first, second := st, st
		first.Name, second.Name = st.Name+"/1", st.Name+"/2"
		first.Tasks, second.Tasks = slices.Clone(st.Tasks), slices.Clone(st.Tasks)
		for i, task := range st.Tasks {
			first.Tasks[i].Wall = task.Wall / 2
			second.Tasks[i].Wall = task.Wall - first.Tasks[i].Wall
		}
		second.DriverTime = 0
		split.Stages = append(split.Stages, first, second)
	}
	if len(split.Stages) != len(ch.Metrics.Stages)+1 {
		t.Fatalf("split %d stages into %d, want one more", len(ch.Metrics.Stages), len(split.Stages))
	}
	want, err := Fig10(smallRuns)
	if err != nil {
		t.Fatal(err)
	}
	gpfKey := runKey{workload.WGS, baseline.GPFOptions()}
	runs := NewRuns(SmallScale())
	runs.runs[gpfKey] = gpf
	runs.more[gpfKey] = smallRuns.more[gpfKey]
	runs.runs[runKey{workload.WGS, baseline.ChurchillOptions()}] = &Run{
		Data: ch.Data, Metrics: split, VCF: ch.VCF, Wall: ch.Wall, Order: ch.Order}
	got, err := Fig10(runs)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want.Points {
		g := got.Points[i]
		// Integer-nanosecond walls lose up to 1 ns each to the halving.
		if w.ChurchillTime == 0 {
			if g.ChurchillTime != 0 {
				t.Fatalf("%d cores: Churchill %v past its ceiling", w.Cores, g.ChurchillTime)
			}
			continue
		}
		if diff := math.Abs(float64(g.ChurchillTime-w.ChurchillTime)) / float64(w.ChurchillTime); diff > 1e-4 {
			t.Fatalf("%d cores: Churchill %v with the split stage, %v as measured", w.Cores, g.ChurchillTime, w.ChurchillTime)
		}
	}
	want5, err := Table5(smallRuns)
	if err != nil {
		t.Fatal(err)
	}
	got5, err := Table5(runs)
	if err != nil {
		t.Fatal(err)
	}
	w, g := want5.Rows[1], got5.Rows[1]
	if w.System != "Churchill" || g.System != "Churchill" {
		t.Fatalf("Table 5 row 1 is %s / %s, want Churchill", w.System, g.System)
	}
	if math.Abs(g.ParallelEfficiency-w.ParallelEfficiency) > 1e-4 {
		t.Fatalf("Table 5 Churchill efficiency %.6f with the split stage, %.6f as measured",
			g.ParallelEfficiency, w.ParallelEfficiency)
	}
}
