package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/gpf-go/gpf/internal/cluster"
)

// childReport is what a child prints after DONE.
type childReport struct {
	CPUSec         float64            `json:"cpu_s"`            // user+sys at DONE, self + reaped workers
	RetainedHeapMB float64            `json:"retained_heap_mb"` // HeapAlloc after a forced GC, resources still held
	Layers         map[string]float64 `json:"layers,omitempty"` // traced pass only
	Spans          []span             `json:"spans,omitempty"`
}

// childMain is the hidden exec mode: one run of the program under test. It
// prints DONE once the output file is written and only then gathers counters,
// so nothing the benchmark adds sits inside the timed interval.
func childMain(args []string) int {
	var spec childSpec
	if len(args) != 1 || json.Unmarshal([]byte(args[0]), &spec) != nil {
		fmt.Fprintln(os.Stderr, "bench exec: want one JSON spec argument")
		return 2
	}
	var tr *tracer
	if spec.TraceOut != "" {
		tr = newTracer(spec.Workload)
	}
	root := tr.begin("run")
	h, err := runWorkload(spec, tr)
	tr.end(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench exec:", err)
		return 1
	}
	self, children := rusage(syscall.RUSAGE_SELF), rusage(syscall.RUSAGE_CHILDREN)
	rep := childReport{CPUSec: cpuOf(self) + cpuOf(children)}
	var ms runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms)
		rep.Layers = map[string]float64{
			"runtime.peak_rss_mb": float64(self.Maxrss+children.Maxrss) / 1024, // Linux reports KiB
			"runtime.alloc_mb":    float64(ms.TotalAlloc) / 1e6,
			"runtime.num_gc":      float64(ms.NumGC),
			"runtime.gc_pause_ms": float64(ms.PauseTotalNs) / 1e6,
			"runtime.gc_cpu_frac": ms.GCCPUFraction,
		}
	}
	fmt.Println("DONE")

	runtime.GC()
	runtime.ReadMemStats(&ms)
	rep.RetainedHeapMB = float64(ms.HeapAlloc) / 1e6
	runtime.KeepAlive(h)

	if tr != nil {
		foldMetrics(h, rep.Layers)
		foldSpans(tr, h, rep.Layers)
		rid := tr.begin("replay")
		err := replayLayers(h, spec, tr, rep.Layers)
		tr.end(rid)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench exec: replay:", err)
			return 1
		}
		rep.Spans = tr.spans
		if err := writeChrome(spec.TraceOut, tr.spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench exec: trace:", err)
			return 1
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		return 1
	}
	return 0
}

func rusage(who int) syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(who, &ru) // fails only on a bad who
	return ru
}

func cpuOf(ru syscall.Rusage) float64 {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// foldSpans turns the harness spans of the timed pass into layer metrics:
// what the run spent in each module it called from outside, and the shares of
// the run that were text I/O and mproc.Run (zero where a module is not called).
func foldSpans(tr *tracer, h *held, out map[string]float64) {
	run := tr.total("run")
	text := tr.total("genome.ReadFASTA") + tr.total("fastq.ReadPairs") + tr.total("vcf.Read") +
		tr.total("vcf.Write") + tr.total("sam.ReadText") + tr.total("sam.WriteText")
	out["genome.read_fasta_s"] = tr.total("genome.ReadFASTA")
	out["vcf.io_s"] = tr.total("vcf.Read") + tr.total("vcf.Write")
	out["core.load_s"] = tr.total("core.load")
	out["core.pipeline_run_s"] = tr.total("core.Pipeline.Run")
	out["core.collect_s"] = tr.total("core.collect")
	out["run.text_io_share"] = text / run
	out["mproc.run_share"] = h.mprocRun.Seconds() / run
}

// Paper-scale calibration of the simulated cluster (5.1: NA12878 is 146.9
// Gbases): task CPU and byte volumes are multiplied by paper bases / our bases.
const paperBases = 146.9e9

// foldMetrics folds the engine's own counters (Context.Metrics, merged over
// ranks for mproc) into layer metrics.
func foldMetrics(h *held, out map[string]float64) {
	m := h.metrics
	out["engine.task_s"] = m.TotalTaskTime().Seconds()
	out["engine.shuffle_mb"] = float64(m.TotalShuffleBytes()) / 1e6
	out["engine.decoded_mb"] = float64(m.TotalDecodedBytes()) / 1e6
	out["engine.pruned_mb"] = float64(m.TotalPrunedBytes()) / 1e6
	out["engine.driver_s"] = m.TotalDriverTime().Seconds()
	out["engine.gc_pause_ms"] = float64(m.TotalGCPause()) / 1e6
	out["engine.stages"] = float64(m.NumStages())
	out["engine.fused_ops"] = float64(m.TotalFusedOps())
	out["core.stages_executed"] = float64(len(h.pipeline.ExecutionOrder()))
	total := m.TotalTaskTime()
	var serialize time.Duration
	var tasks, partitions int
	var straggler float64
	for i := range m.Stages {
		s := &m.Stages[i]
		serialize += s.SerializeTime()
		tasks += len(s.Tasks)
		// Kernel stages by name; the rest is shuffle, census and collect. The
		// fused apply-recalibration+haplotype-caller stage of wgs counts as
		// caller, which is nearly all of it.
		share := s.TaskTime().Seconds() / total.Seconds()
		switch {
		case strings.Contains(s.Name, "bwa-mem"):
			out["align.task_share"] += share
		case strings.Contains(s.Name, "haplotype-caller"):
			out["caller.task_share"] += share
		case strings.Contains(s.Name, "/mark") || strings.Contains(s.Name, "/realign") ||
			strings.Contains(s.Name, "count-covariates") || strings.Contains(s.Name, "apply-recalibration"):
			out["cleaner.task_share"] += share
		}
		if strings.HasSuffix(s.Name, "sam-partition/reduce") && len(s.Tasks) > partitions {
			partitions = len(s.Tasks) // one reduce task per partition after the dynamic split
		}
		if s.TaskTime()*100 >= total && len(s.Tasks) > 1 {
			mean := s.TaskTime().Seconds() / float64(len(s.Tasks))
			straggler = max(straggler, s.MaxTaskTime().Seconds()/mean)
		}
	}
	out["engine.serialize_s"] = serialize.Seconds()
	out["engine.serialize_share"] = serialize.Seconds() / total.Seconds()
	out["engine.fetch_wait_share"] = m.TotalFetchWait().Seconds() / total.Seconds()
	out["engine.pipeline_overlap_share"] = m.TotalPipelineOverlap().Seconds() / total.Seconds()
	out["engine.tasks"] = float64(tasks)
	out["engine.straggler_ratio"] = straggler
	out["core.partitions"] = float64(partitions)
	for _, s := range h.sams {
		if s.Data != nil {
			out["engine.resident_mb"] += float64(s.Data.MemoryBytes()) / 1e6
		}
	}

	var bases float64
	for i := range h.pairs {
		bases += float64(len(h.pairs[i].R1.Seq) + len(h.pairs[i].R2.Seq))
	}
	for i := range h.input {
		bases += float64(len(h.input[i].Seq))
	}
	if bases > 0 {
		scale := paperBases / bases
		tr := refine(cluster.TraceFromMetrics(m, scale, scale), 2048)
		sim := func(cores int) time.Duration {
			return cluster.Simulate(tr, cluster.PaperCluster(), cores, cluster.SparkOptions()).Makespan
		}
		t128, t2048 := sim(128), sim(2048)
		out["cluster.sim128_min"] = t128.Minutes()
		out["cluster.sim2048_min"] = t2048.Minutes()
		out["cluster.efficiency_2048"] = cluster.Efficiency(t128, 128, t2048, 2048)
	}
}

// refine splits every stage's tasks until it has at least target of them —
// the granularity a full-size dataset would present to a 2048-core scheduler.
func refine(tr cluster.Trace, target int) cluster.Trace {
	out := cluster.Trace{Stages: make([]cluster.StageWork, len(tr.Stages))}
	for i, s := range tr.Stages {
		out.Stages[i] = s
		if n := len(s.Tasks); n > 0 && n < target {
			one := cluster.Trace{Stages: []cluster.StageWork{s}}
			out.Stages[i] = one.SplitTasks((target + n - 1) / n).Stages[0]
		}
	}
	return out
}
