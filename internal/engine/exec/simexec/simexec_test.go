package simexec

import (
	"testing"
	"time"

	"github.com/gpf-go/gpf/internal/engine"
)

// TestExecContract: the oracle is a single-process backend the engine can run
// on directly.
func TestExecContract(t *testing.T) {
	e := New(3)
	if e.Name() != "sim" || e.Procs() != 1 || e.Rank() != 0 || e.Slots() != 3 {
		t.Fatalf("contract violated: %s procs=%d rank=%d slots=%d", e.Name(), e.Procs(), e.Rank(), e.Slots())
	}
	ctx := engine.NewContextOn(e)
	d := engine.Parallelize(ctx, []int{5, 4, 3, 2, 1}, 2)
	out, err := engine.PartitionBy("s/pb", d, 2, func(x int) int { return x })
	if err != nil {
		t.Fatal(err)
	}
	total, err := engine.Count("s/count", out)
	if err != nil || total != 5 {
		t.Fatalf("count=%d err=%v", total, err)
	}
}

// TestPredictScalingShape: predictions cover every requested point, makespan
// never increases with more processes on a parallel trace, and speedup is
// anchored at the first point.
func TestPredictScalingShape(t *testing.T) {
	e := New(2)
	ctx := engine.NewContextOn(e)
	items := make([]int, 4000)
	for i := range items {
		items[i] = i
	}
	d := engine.Parallelize(ctx, items, 16)
	if _, err := engine.PartitionBy("s/pb", d, 16, func(x int) int { return x * 7 }); err != nil {
		t.Fatal(err)
	}
	m := ctx.Metrics()
	// Inflate task costs so the modeled makespans are well above rounding.
	for i := range m.Stages {
		for j := range m.Stages[i].Tasks {
			m.Stages[i].Tasks[j].Wall += 20 * time.Millisecond
		}
	}
	preds := PredictScaling(m, 2, []int{1, 2, 4, 8})
	if len(preds) != 4 {
		t.Fatalf("got %d predictions", len(preds))
	}
	if preds[0].Speedup != 1 {
		t.Fatalf("first point speedup %v, want 1", preds[0].Speedup)
	}
	for i := 1; i < len(preds); i++ {
		if preds[i].Makespan > preds[i-1].Makespan {
			t.Fatalf("makespan increased from W=%d (%v) to W=%d (%v)",
				preds[i-1].Procs, preds[i-1].Makespan, preds[i].Procs, preds[i].Makespan)
		}
	}
	if preds[3].Speedup <= 1.5 {
		t.Fatalf("16 partitions across 8 procs predicted speedup %.2f, want > 1.5", preds[3].Speedup)
	}
}
