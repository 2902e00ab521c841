package cluster

import (
	"reflect"
	"testing"
	"time"

	"github.com/gpf-go/gpf/internal/engine"
)

func uniformTrace(stages, tasksPerStage int, cpu time.Duration, bytes int64) Trace {
	var tr Trace
	for s := 0; s < stages; s++ {
		sw := StageWork{Name: "s", Kind: engine.StageNarrow}
		for t := 0; t < tasksPerStage; t++ {
			sw.Tasks = append(sw.Tasks, TaskWork{CPU: cpu, ReadBytes: bytes, WriteBytes: bytes})
		}
		tr.Stages = append(tr.Stages, sw)
	}
	return tr
}

func TestSimulateScalesWithCores(t *testing.T) {
	tr := uniformTrace(3, 1024, 100*time.Millisecond, 0)
	cfg := PaperCluster()
	t128 := Simulate(tr, cfg, 128, Options{}).Makespan
	t256 := Simulate(tr, cfg, 256, Options{}).Makespan
	t1024 := Simulate(tr, cfg, 1024, Options{}).Makespan
	if !(t128 > t256 && t256 > t1024) {
		t.Fatalf("makespans not decreasing: %v %v %v", t128, t256, t1024)
	}
	// Perfectly divisible uniform tasks: near-ideal speedup.
	ratio := float64(t128) / float64(t1024)
	if ratio < 7 || ratio > 9 {
		t.Fatalf("128->1024 speedup = %.2f, want ~8", ratio)
	}
}

func TestSimulateSkewLimitsScaling(t *testing.T) {
	// One giant task caps speedup at the straggler.
	var tr Trace
	sw := StageWork{Name: "skew"}
	sw.Tasks = append(sw.Tasks, TaskWork{CPU: 10 * time.Second})
	for i := 0; i < 1000; i++ {
		sw.Tasks = append(sw.Tasks, TaskWork{CPU: 10 * time.Millisecond})
	}
	tr.Stages = []StageWork{sw}
	cfg := PaperCluster()
	t2048 := Simulate(tr, cfg, 2048, Options{}).Makespan
	if t2048 < 10*time.Second {
		t.Fatalf("makespan %v below straggler task time", t2048)
	}
}

func TestSimulateDriverSerial(t *testing.T) {
	tr := Trace{Stages: []StageWork{{Name: "a", Driver: 5 * time.Second}}}
	cfg := PaperCluster()
	r := Simulate(tr, cfg, 2048, Options{})
	if r.Makespan < 5*time.Second {
		t.Fatalf("driver time not serialized: %v", r.Makespan)
	}
	if r.Driver != 5*time.Second {
		t.Fatalf("driver accounting = %v", r.Driver)
	}
}

func TestSimulateIOOptions(t *testing.T) {
	tr := uniformTrace(1, 256, 10*time.Millisecond, 100<<20)
	cfg := PaperCluster()
	base := Simulate(tr, cfg, 256, Options{})
	noDisk := Simulate(tr, cfg, 256, Options{NoDisk: true})
	noNet := Simulate(tr, cfg, 256, Options{NoNet: true})
	if base.DiskTime == 0 || base.NetTime == 0 {
		t.Fatal("I/O time not accounted")
	}
	if noDisk.DiskTime != 0 {
		t.Fatal("NoDisk did not zero disk time")
	}
	if noNet.NetTime != 0 {
		t.Fatal("NoNet did not zero network time")
	}
	if noDisk.Makespan >= base.Makespan || noNet.Makespan >= base.Makespan {
		t.Fatal("removing I/O should reduce makespan")
	}
}

func TestSimulateCoreClamping(t *testing.T) {
	tr := uniformTrace(1, 10, time.Second, 0)
	cfg := Config{Nodes: 2, CoresPerNode: 4, Disk: DiskModel{BandwidthMBps: 100}, Net: NetworkModel{BandwidthMBpsPerNode: 1000}}
	over := Simulate(tr, cfg, 100, Options{})
	if over.Cores != 8 {
		t.Fatalf("cores clamped to %d, want 8", over.Cores)
	}
	under := Simulate(tr, cfg, 0, Options{})
	if under.Cores != 1 {
		t.Fatalf("cores floor = %d, want 1", under.Cores)
	}
}

func TestLPTMakespan(t *testing.T) {
	durs := []time.Duration{4, 3, 3, 2, 2, 2} // LPT on 2 cores: 8 each
	if got := lptMakespan(durs, 2); got != 8 {
		t.Fatalf("makespan = %v, want 8", got)
	}
	if got := lptMakespan(nil, 4); got != 0 {
		t.Fatalf("empty = %v", got)
	}
	if got := lptMakespan([]time.Duration{5}, 8); got != 5 {
		t.Fatalf("single = %v", got)
	}
}

func TestTraceFromMetrics(t *testing.T) {
	m := engine.Metrics{Stages: []engine.StageMetrics{{
		Name: "s1", Kind: engine.StageShuffle,
		Tasks: []engine.TaskMetrics{{Wall: time.Second, ShuffleReadBytes: 100, ShuffleWriteBytes: 200}},
	}}}
	tr := TraceFromMetrics(m, 2, 10)
	if len(tr.Stages) != 1 || len(tr.Stages[0].Tasks) != 1 {
		t.Fatalf("trace shape: %+v", tr)
	}
	task := tr.Stages[0].Tasks[0]
	if task.CPU != 2*time.Second || task.ReadBytes != 1000 || task.WriteBytes != 2000 {
		t.Fatalf("scaling broken: %+v", task)
	}
	// Zero scales default to 1.
	tr = TraceFromMetrics(m, 0, 0)
	if tr.Stages[0].Tasks[0].CPU != time.Second {
		t.Fatal("zero cpuScale should default to 1")
	}
}

func TestSplitTasks(t *testing.T) {
	tr := uniformTrace(1, 4, 8*time.Second, 800)
	split := tr.SplitTasks(4)
	if len(split.Stages[0].Tasks) != 16 {
		t.Fatalf("tasks = %d, want 16", len(split.Stages[0].Tasks))
	}
	if split.Stages[0].Tasks[0].CPU != 2*time.Second {
		t.Fatalf("split CPU = %v", split.Stages[0].Tasks[0].CPU)
	}
	if same := tr.SplitTasks(1); len(same.Stages[0].Tasks) != 4 {
		t.Fatal("factor 1 should be identity")
	}
}

func TestEfficiency(t *testing.T) {
	// Perfect scaling: 2x cores, half time -> efficiency 1.
	if e := Efficiency(100*time.Second, 128, 50*time.Second, 256); e != 1 {
		t.Fatalf("efficiency = %v", e)
	}
	// Half-perfect: 2x cores, same time -> 0.5.
	if e := Efficiency(100*time.Second, 128, 100*time.Second, 256); e != 0.5 {
		t.Fatalf("efficiency = %v", e)
	}
	if Efficiency(time.Second, 1, 0, 1) != 0 {
		t.Fatal("zero time should yield 0")
	}
}

// The two shared filesystems of Table 1 (experiments/table1.go's fitted
// values): striped Lustre, and a single NFS server that saturates earlier.
var (
	lustre = SharedFS{Name: "Lustre", AggregateMBps: 800, PerClientCapMBps: 700, MetadataPenalty: 1.0}
	nfs    = SharedFS{Name: "NFS", AggregateMBps: 500, PerClientCapMBps: 860, MetadataPenalty: 1.0}
)

func TestSharedFSContention(t *testing.T) {
	// Per-client bandwidth collapses with client count.
	if lustre.PerClientMBps(1) <= lustre.PerClientMBps(30) {
		t.Fatal("contention should reduce per-client bandwidth")
	}
	// NFS saturates harder than Lustre at high client counts.
	if nfs.PerClientMBps(30) >= lustre.PerClientMBps(30) {
		t.Fatal("NFS should be slower than Lustre under load")
	}
	// Transfer time grows with contention.
	t1 := lustre.TransferTime(1<<30, 1)
	t30 := lustre.TransferTime(1<<30, 30)
	if t30 <= t1 {
		t.Fatalf("transfer under contention %v should exceed solo %v", t30, t1)
	}
}

func TestSimulateFilePipelineIOShare(t *testing.T) {
	// The Table 1 shape: with more concurrent samples, the I/O share climbs.
	stages := []FileStage{
		{Name: "align", CPU: 60 * time.Minute, ReadBytes: 500 << 30 / 30, WriteBytes: 600 << 30 / 30},
		{Name: "sort", CPU: 20 * time.Minute, ReadBytes: 600 << 30 / 30, WriteBytes: 600 << 30 / 30},
		{Name: "call", CPU: 60 * time.Minute, ReadBytes: 600 << 30 / 30, WriteBytes: 1 << 30},
	}
	one := SimulateFilePipeline(stages, 1, lustre)
	thirty := SimulateFilePipeline(stages, 30, lustre)
	if thirty.IOPercent <= one.IOPercent {
		t.Fatalf("I/O share should grow with samples: %v vs %v", one.IOPercent, thirty.IOPercent)
	}
	if one.WallTime != one.IOTime+one.CPUTime {
		t.Fatal("wall time accounting broken")
	}
}

func TestStageTimelineMonotonic(t *testing.T) {
	tr := uniformTrace(4, 64, 50*time.Millisecond, 1<<20)
	r := Simulate(tr, PaperCluster(), 128, Options{})
	var prev time.Duration
	for i, s := range r.Stages {
		if s.Start < prev {
			t.Fatalf("stage %d starts at %v before previous end %v", i, s.Start, prev)
		}
		prev = s.Start + s.Makespan
	}
	if r.Makespan != prev {
		t.Fatalf("makespan %v != last stage end %v", r.Makespan, prev)
	}
}

func TestBlockFractions(t *testing.T) {
	tr := uniformTrace(1, 128, 10*time.Millisecond, 100<<20)
	cfg := PaperCluster()
	full := Simulate(tr, cfg, 128, Options{})
	spark := Simulate(tr, cfg, 128, SparkOptions())
	if spark.DiskTime >= full.DiskTime {
		t.Fatalf("Spark disk blocked time %v should be below fully-blocking %v", spark.DiskTime, full.DiskTime)
	}
	if spark.NetTime >= full.NetTime {
		t.Fatalf("Spark net blocked time %v should be below fully-blocking %v", spark.NetTime, full.NetTime)
	}
	if spark.Makespan >= full.Makespan {
		t.Fatal("page-cache model should shorten the run")
	}
	// Out-of-range fractions fall back to fully blocking.
	weird := Simulate(tr, cfg, 128, Options{DiskBlockFraction: 7, NetBlockFraction: -2})
	if weird.DiskTime != full.DiskTime || weird.NetTime != full.NetTime {
		t.Fatal("invalid fractions should default to 1.0")
	}
}

func TestSparkOptionsPreservedThroughNoDisk(t *testing.T) {
	tr := uniformTrace(1, 64, 10*time.Millisecond, 50<<20)
	cfg := PaperCluster()
	opts := SparkOptions()
	opts.NoDisk = true
	r := Simulate(tr, cfg, 64, opts)
	if r.DiskTime != 0 {
		t.Fatal("NoDisk must win over block fractions")
	}
	if r.NetTime == 0 {
		t.Fatal("network time should remain")
	}
}

// shuffleMetrics runs one 16-partition shuffle in process and returns its
// metrics — a real trace for PredictScaling to replay.
func shuffleMetrics(t *testing.T) engine.Metrics {
	t.Helper()
	ctx := engine.NewContext(2)
	items := make([]int, 4000)
	for i := range items {
		items[i] = i
	}
	d := engine.Parallelize(ctx, items, 16)
	if _, err := engine.PartitionBy("s/pb", d, 16, func(x int) int { return x * 7 }); err != nil {
		t.Fatal(err)
	}
	return ctx.Metrics()
}

// TestPredictScalingShape: predictions cover every requested point, makespan
// never increases with more processes on a parallel trace, and speedup is
// anchored at the first point.
func TestPredictScalingShape(t *testing.T) {
	m := shuffleMetrics(t)
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

// TestSimulateDeterministic: the simulator is a function of its trace — no
// wall clock, no global random source, no map order in its output. Each
// entry point replayed on the same input returns deeply equal results, with
// uneven task costs so ties and heap order are in play.
func TestSimulateDeterministic(t *testing.T) {
	var tr Trace
	for s := 0; s < 5; s++ {
		sw := StageWork{Name: "s", Kind: engine.StageShuffle, Driver: time.Duration(s) * time.Millisecond}
		for i := 0; i < 97; i++ {
			skew := time.Duration((i*31+s*17)%13) * 3 * time.Millisecond
			sw.Tasks = append(sw.Tasks, TaskWork{CPU: skew, ReadBytes: int64(i%7) << 20, WriteBytes: int64(i%5) << 19})
		}
		tr.Stages = append(tr.Stages, sw)
	}
	cfg := PaperCluster()
	for _, cores := range []int{1, 48, 2048} {
		if a, b := Simulate(tr, cfg, cores, SparkOptions()), Simulate(tr, cfg, cores, SparkOptions()); !reflect.DeepEqual(a, b) {
			t.Fatalf("Simulate at %d cores differs between replays:\n%+v\n%+v", cores, a, b)
		}
	}

	files := []FileStage{
		{Name: "align", CPU: 60 * time.Minute, ReadBytes: 17 << 30, WriteBytes: 20 << 30},
		{Name: "call", CPU: 45 * time.Minute, ReadBytes: 20 << 30, WriteBytes: 1 << 30},
	}
	if a, b := SimulateFilePipeline(files, 30, lustre), SimulateFilePipeline(files, 30, lustre); !reflect.DeepEqual(a, b) {
		t.Fatalf("SimulateFilePipeline differs between replays:\n%+v\n%+v", a, b)
	}

	// PredictScaling goes through TraceFromMetrics, so a real run's metrics
	// are the input; only the replay is repeated, not the run.
	m := shuffleMetrics(t)
	if a, b := PredictScaling(m, 2, []int{1, 2, 4, 8}), PredictScaling(m, 2, []int{1, 2, 4, 8}); !reflect.DeepEqual(a, b) {
		t.Fatalf("PredictScaling differs between replays:\n%+v\n%+v", a, b)
	}
}
