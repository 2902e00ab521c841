package stats

import (
	"testing"
	"time"

	"github.com/gpf-go/gpf/internal/cluster"
	"github.com/gpf-go/gpf/internal/engine"
)

func ioTrace() cluster.Trace {
	var sw cluster.StageWork
	sw.Name = "io-stage"
	for i := 0; i < 128; i++ {
		sw.Tasks = append(sw.Tasks, cluster.TaskWork{
			CPU: 100 * time.Millisecond, ReadBytes: 50 << 20, WriteBytes: 50 << 20,
		})
	}
	return cluster.Trace{Stages: []cluster.StageWork{sw}}
}

func TestBlockedTime(t *testing.T) {
	res := BlockedTime(ioTrace(), cluster.PaperCluster(), 128, cluster.Options{})
	if res.Base <= 0 {
		t.Fatal("no base makespan")
	}
	if res.NoDisk >= res.Base || res.NoNetwork >= res.Base {
		t.Fatal("removing I/O should shorten the run")
	}
	if res.DiskImprovement <= 0 || res.DiskImprovement >= 1 {
		t.Fatalf("disk improvement %v out of (0,1)", res.DiskImprovement)
	}
	if res.NetImprovement <= 0 || res.NetImprovement >= 1 {
		t.Fatalf("net improvement %v out of (0,1)", res.NetImprovement)
	}
	if res.ShuffleFraction <= 0 || res.ShuffleFraction >= 1 {
		t.Fatalf("shuffle fraction %v out of (0,1)", res.ShuffleFraction)
	}
}

func TestBlockedTimeCPUBound(t *testing.T) {
	// Pure-CPU trace: eliminating I/O changes nothing — the §5.3.2
	// conclusion that GPF jobs are CPU bound.
	var sw cluster.StageWork
	for i := 0; i < 64; i++ {
		sw.Tasks = append(sw.Tasks, cluster.TaskWork{CPU: time.Second})
	}
	tr := cluster.Trace{Stages: []cluster.StageWork{sw}}
	res := BlockedTime(tr, cluster.PaperCluster(), 64, cluster.Options{})
	if res.DiskImprovement != 0 || res.NetImprovement != 0 {
		t.Fatalf("CPU-bound trace should show zero I/O improvement: %+v", res)
	}
}

func TestTimeline(t *testing.T) {
	sim := cluster.Simulate(ioTrace(), cluster.PaperCluster(), 128, cluster.Options{})
	points := Timeline(sim, 128, 20)
	if len(points) != 20 {
		t.Fatalf("points = %d", len(points))
	}
	sawBusy := false
	for i, p := range points {
		if p.CPUUtil < 0 || p.CPUUtil > 1 {
			t.Fatalf("point %d CPU util %v out of range", i, p.CPUUtil)
		}
		if p.CPUUtil > 0 {
			sawBusy = true
		}
		if i > 0 && p.T <= points[i-1].T {
			t.Fatal("timeline not monotone")
		}
	}
	if !sawBusy {
		t.Fatal("no busy samples")
	}
	if Timeline(cluster.Result{}, 10, 5) != nil {
		t.Fatal("empty result should yield nil timeline")
	}
}

func TestTimelineStageAttribution(t *testing.T) {
	tr := cluster.Trace{Stages: []cluster.StageWork{
		{Name: "first", Kind: engine.StageNarrow, Tasks: []cluster.TaskWork{{CPU: time.Second}}},
		{Name: "second", Kind: engine.StageNarrow, Tasks: []cluster.TaskWork{{CPU: time.Second}}},
	}}
	sim := cluster.Simulate(tr, cluster.PaperCluster(), 1, cluster.Options{})
	points := Timeline(sim, 1, 10)
	if points[0].Stage != "first" {
		t.Fatalf("first sample stage = %q", points[0].Stage)
	}
	if points[9].Stage != "second" {
		t.Fatalf("last sample stage = %q", points[9].Stage)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10)
	for _, v := range []int{5, 5, 5, 3, -2, 99} {
		h.Add(v)
	}
	if h.Total != 6 {
		t.Fatalf("total = %d", h.Total)
	}
	if got := h.Percent(5); got != 50 {
		t.Fatalf("percent(5) = %v", got)
	}
	// Clamping.
	if h.Counts[0] != 1 || h.Counts[10] != 1 {
		t.Fatal("out-of-range values must clamp to edges")
	}
	if got := h.MassWithin(5, 2); got != 4.0/6 {
		t.Fatalf("mass within = %v", got)
	}
	// Reversed bounds normalize.
	h2 := NewHistogram(10, 0)
	if h2.Min != 0 || h2.Max != 10 {
		t.Fatal("reversed bounds not normalized")
	}
	if h2.Percent(3) != 0 {
		t.Fatal("empty histogram percent should be 0")
	}
}
