package experiments

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/gpf-go/gpf/internal/baseline"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/vcf"
	"github.com/gpf-go/gpf/internal/workload"
)

// smallRuns is the SmallScale Runs every figure test of this binary reads, so
// each configuration of the WGS pipeline is measured once per binary.
var smallRuns = NewRuns(SmallScale())

// TestFiguresShareRuns builds every figure that replays the WGS pipeline from
// one Runs: five configurations are measured, once each, and no figure
// modifies the run another reads.
func TestFiguresShareRuns(t *testing.T) {
	noFuse := baseline.GPFOptions()
	noFuse.Optimize = false
	configs := []runKey{
		{workload.WGS, baseline.GPFOptions()},
		{workload.WGS, baseline.ChurchillOptions()},
		{workload.WGS, noFuse},
		{workload.WES, baseline.GPFOptions()},
		{workload.GenePanel, baseline.GPFOptions()},
	}
	snapshot := map[runKey]engine.Metrics{}
	for _, k := range configs {
		run, err := smallRuns.Get(k.kind, k.opts)
		if err != nil {
			t.Fatal(err)
		}
		m := engine.Metrics{Stages: slices.Clone(run.Metrics.Stages)}
		for i := range m.Stages {
			m.Stages[i].Tasks = slices.Clone(m.Stages[i].Tasks)
		}
		snapshot[k] = m
	}

	// Both systems call variants; the unfused Churchill pipeline executes
	// more stages than GPF's.
	gpf, _ := smallRuns.Get(workload.WGS, baseline.GPFOptions())
	ch, _ := smallRuns.Get(workload.WGS, baseline.ChurchillOptions())
	for name, run := range map[string]*Run{"GPF": gpf, "Churchill": ch} {
		if _, calls, err := vcf.Read(bytes.NewReader(run.VCF)); err != nil || len(calls) == 0 {
			t.Fatalf("%s run called nothing (%v)", name, err)
		}
	}
	if gpf.Metrics.NumStages() >= ch.Metrics.NumStages() {
		t.Fatalf("GPF stages %d should be < Churchill stages %d", gpf.Metrics.NumStages(), ch.Metrics.NumStages())
	}

	if _, err := Table1(smallRuns); err != nil {
		t.Fatal(err)
	}
	if _, err := Table4(smallRuns); err != nil {
		t.Fatal(err)
	}
	f10, err := Fig10(smallRuns)
	if err != nil {
		t.Fatal(err)
	}
	t5, err := Table5(smallRuns)
	if err != nil {
		t.Fatal(err)
	}
	if t5.Rows[0].System != "GPF" || t5.Rows[0].ParallelEfficiency != f10.GPFEfficiency {
		t.Fatalf("Table 5 GPF row %+v, Fig 10 efficiency %v", t5.Rows[0], f10.GPFEfficiency)
	}
	if _, err := Fig11(smallRuns); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig12(smallRuns); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig13(smallRuns); err != nil {
		t.Fatal(err)
	}
	if _, err := RunWGSOn(smallRuns, "inproc", 1); err != nil {
		t.Fatal(err)
	}

	if len(smallRuns.runs) != len(configs) {
		t.Fatalf("measured %d configurations, want %d", len(smallRuns.runs), len(configs))
	}
	// Fig 10 measured the GPF configuration medianRuns times in all, and
	// nothing else more than once.
	if len(smallRuns.more) != 1 || len(smallRuns.more[configs[0]]) != medianRuns-1 {
		t.Fatalf("extra measurements %v, want %d of GPF only", len(smallRuns.more), medianRuns-1)
	}
	for _, k := range configs {
		if !reflect.DeepEqual(smallRuns.runs[k].Metrics, snapshot[k]) {
			t.Fatalf("%v %+v: metrics changed after the figures read them", k.kind, k.opts)
		}
	}
}

// TestMedianWalls: the median run takes each task's wall and each stage's
// driver time from the middle run, keeps everything else of the first, and
// refuses runs that are not measurements of one configuration.
func TestMedianWalls(t *testing.T) {
	mk := func(vcf string, walls ...time.Duration) *Run {
		st := engine.StageMetrics{Name: "s", DriverTime: walls[0]}
		for _, w := range walls {
			st.Tasks = append(st.Tasks, engine.TaskMetrics{Wall: w, InputItems: 7})
		}
		return &Run{VCF: []byte(vcf), Metrics: engine.Metrics{Stages: []engine.StageMetrics{st}}}
	}
	runs := []*Run{mk("v", 5, 1), mk("v", 1, 9), mk("v", 3, 4)}
	med, err := medianWalls(runs)
	if err != nil {
		t.Fatal(err)
	}
	st := med.Metrics.Stages[0]
	if st.DriverTime != 3 || st.Tasks[0].Wall != 3 || st.Tasks[1].Wall != 4 || st.Tasks[1].InputItems != 7 {
		t.Fatalf("median stage %+v", st)
	}
	if runs[0].Metrics.Stages[0].Tasks[0].Wall != 5 {
		t.Fatal("medianWalls modified its first run")
	}
	for _, bad := range [][]*Run{
		{mk("v", 1, 1), mk("w", 1, 1)},
		{mk("v", 1, 1), mk("v", 1)},
	} {
		if _, err := medianWalls(bad); err == nil {
			t.Fatal("median of runs of different configurations")
		}
	}
}
