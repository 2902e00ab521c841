// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment runs real pipeline code on synthetic
// workloads, records engine metrics, and — where the paper's numbers come
// from a 2048-core cluster — replays the measured trace through the cluster
// simulator. Absolute values therefore differ from the paper (the substrate
// is a simulator, not the authors' testbed), but the comparisons, ratios and
// crossovers are produced by the same mechanisms.
package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/gpf-go/gpf/internal/align"
	"github.com/gpf-go/gpf/internal/baseline"
	"github.com/gpf-go/gpf/internal/cluster"
	"github.com/gpf-go/gpf/internal/compress"
	"github.com/gpf-go/gpf/internal/core"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/vcf"
	"github.com/gpf-go/gpf/internal/workload"
)

// Paper-scale constants used for calibration (§5.1): the NA12878 Platinum
// Genome is 146.9 Gbases and 500 GB in FASTQ form.
const (
	PaperBases      = 146.9e9
	PaperFASTQBytes = 500e9
)

// bwaMbasePerSecPerCore is real BWA-MEM's per-core alignment speed, the rate
// behind the paper's 0.062 Gbase/s at 128 cores. Paper-scale aligner cost is
// anchored to it so the figures do not move with the speed of this repo's Go
// aligner.
const bwaMbasePerSecPerCore = 0.48

// paperGPF128Minutes is GPF's WGS run time on 128 cores in the paper's
// Fig 10. Less the aligner's share at bwaMbasePerSecPerCore it is the core
// time of the GATK-style Cleaner and Caller tools, which paper-scale traces
// are anchored to for the same reason.
const paperGPF128Minutes = 174

// Scale sizes an experiment run. Small scales finish in seconds for tests
// and benchmarks; Default gives smoother curves for the CLI.
type Scale struct {
	GenomeLen     int
	Coverage      float64
	Workers       int
	NumPartitions int
	PartitionLen  int
	Seed          int64
}

// SmallScale is the test/benchmark preset.
func SmallScale() Scale {
	return Scale{GenomeLen: 30000, Coverage: 8, Workers: 1, NumPartitions: 4, PartitionLen: 5000, Seed: 42}
}

// DefaultScale is the CLI preset.
func DefaultScale() Scale {
	return Scale{GenomeLen: 120000, Coverage: 12, Workers: 4, NumPartitions: 8, PartitionLen: 8000, Seed: 42}
}

// newRuntime builds a core runtime on ctx for a dataset under this scale.
func (s Scale) newRuntime(ctx *engine.Context, d *workload.Dataset) *core.Runtime {
	rt := core.NewRuntime(ctx, d.Ref)
	rt.PartitionLen = s.PartitionLen
	rt.NumPartitions = s.NumPartitions
	rt.Known = d.Known
	return rt
}

// dataset synthesizes the experiment's standard WGS dataset.
func (s Scale) dataset(kind workload.Kind) *workload.Dataset {
	p := workload.DefaultProfile(kind, s.GenomeLen)
	p.Coverage = s.Coverage
	return workload.Make(p, s.Seed)
}

// alignAll aligns every pair on the driver with rt's aligner, two records
// per pair in input order: the aligned input of the experiments that replay
// a stage or a codec on fixed records.
func alignAll(rt *core.Runtime, pairs []fastq.Pair) ([]sam.Record, error) {
	idx, err := rt.Index()
	if err != nil {
		return nil, err
	}
	aligner := align.NewAligner(idx, rt.AlignerConfig)
	records := make([]sam.Record, 0, 2*len(pairs))
	for i := range pairs {
		r1, r2 := aligner.AlignPair(&pairs[i])
		records = append(records, r1, r2)
	}
	return records, nil
}

// calibration converts a measured laptop run to paper scale: CPU times and
// byte volumes are multiplied by the dataset-size ratio.
func calibration(d *workload.Dataset) (cpuScale, byteScale float64) {
	bases := float64(d.TotalBases())
	if bases <= 0 {
		return 1, 1
	}
	return PaperBases / bases, PaperFASTQBytes / float64(d.FASTQBytes())
}

// refine splits every stage's tasks so each stage has at least targetTasks —
// the task granularity a full-size dataset would present to the scheduler.
// Relative skew between a stage's tasks is preserved: an overloaded
// partition's subtasks stay proportionally larger.
func refine(tr cluster.Trace, targetTasks int) cluster.Trace {
	if targetTasks <= 1 {
		return tr
	}
	out := cluster.Trace{Stages: make([]cluster.StageWork, len(tr.Stages))}
	for i, s := range tr.Stages {
		n := len(s.Tasks)
		if n == 0 {
			out.Stages[i] = s
			continue
		}
		factor := (targetTasks + n - 1) / n
		if factor <= 1 {
			out.Stages[i] = s
			continue
		}
		one := cluster.Trace{Stages: []cluster.StageWork{s}}
		out.Stages[i] = one.SplitTasks(factor).Stages[0]
	}
	return out
}

// anchorTools rescales tr's task CPU to the cost of the paper's tools, so
// that the figures do not move with the speed of this repo's Go kernels. The
// Aligner-phase tasks together cost PaperBases at real BWA-MEM's per-core
// rate; the Cleaner- and Caller-phase tasks together cost what is left of
// the paper's 128-core run. Each group is scaled by one factor, so the
// measured skew between tasks and the Cleaner/Caller split — what the
// simulator's scaling shape comes from — are kept. Driver time is the
// engine's, not the tools', and stays as calibrated.
func anchorTools(tr cluster.Trace) {
	alignerSec := PaperBases / (bwaMbasePerSecPerCore * 1e6)
	anchor := map[bool]float64{
		true:  alignerSec,
		false: paperGPF128Minutes*60*128 - alignerSec,
	}
	total := map[bool]time.Duration{}
	for _, s := range tr.Stages {
		a := phaseOf(s.Name) == "Aligner"
		for _, t := range s.Tasks {
			total[a] += t.CPU
		}
	}
	for _, s := range tr.Stages {
		a := phaseOf(s.Name) == "Aligner"
		if total[a] <= 0 {
			continue
		}
		f := anchor[a] * float64(time.Second) / float64(total[a])
		for i := range s.Tasks {
			s.Tasks[i].CPU = time.Duration(float64(s.Tasks[i].CPU) * f)
		}
	}
}

// driveWGS is the one WGS driver: it synthesizes sp.Scale's dataset of the
// given kind and runs the full pipeline under sp.Opts on ctx, from FASTQ pairs
// to VCF. The Run it returns holds the dataset, the rendered VCF text (the
// byte-identity witness across backends) and the pipeline's Process order;
// the caller fills in metrics and wall. Runs calls it on a fresh in-process
// Context; the mproc scaling job calls it on each rank's Context.
func driveWGS(ctx *engine.Context, kind workload.Kind, sp ScalingSpec) (*Run, error) {
	d := sp.Scale.dataset(kind)
	rt := sp.Scale.newRuntime(ctx, d)
	sp.Opts.Configure(rt)
	ds := core.PairsToRDD(rt, d.Pairs, rt.NumPartitions)
	if sp.InjectMapError {
		var err error
		ds, err = engine.MapPartitions("inject-fail", ds,
			engine.Serializer[fastq.Pair](compress.GPFPairCodec{}),
			func(p int, items []fastq.Pair) ([]fastq.Pair, error) {
				if p == 1 {
					return nil, errors.New("injected worker-side map failure")
				}
				return items, nil
			})
		if err != nil {
			return nil, err
		}
	}
	wgs := core.BuildWGSPipeline(rt, ds, false)
	if err := wgs.Pipeline.Run(); err != nil {
		return nil, err
	}
	calls, err := core.CollectVCF(rt, wgs.VCF)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := vcf.Write(&buf, wgs.VCF.Header, calls); err != nil {
		return nil, err
	}
	return &Run{Data: d, VCF: buf.Bytes(), Order: wgs.Pipeline.ExecutionOrder()}, nil
}

// Run is one measured in-process WGS run: the dataset it read, the engine
// metrics it recorded, the VCF it wrote, its wall time (dataset synthesis
// included) and the pipeline's Processes in the order they ran — the tools a
// tool-chain comparator hands files between.
type Run struct {
	Data    *workload.Dataset
	Metrics engine.Metrics
	VCF     []byte
	Wall    time.Duration
	Order   []string
}

// runKey is one configuration of the WGS pipeline.
type runKey struct {
	kind workload.Kind
	opts baseline.WGSOptions
}

// Runs measures each configuration of the WGS pipeline at most once at one
// Scale and keeps the run for every figure that reads it, so figures that
// describe the same configuration describe the same run. A figure that needs
// a configuration measured more than once (Fig 10, through median) gets Get's
// run plus extra measurements, kept apart from it. Readers must not modify a
// Run. Callers are sequential: Runs has no lock.
type Runs struct {
	Scale Scale
	runs  map[runKey]*Run
	more  map[runKey][]*Run // median's measurements beyond Get's run
}

// NewRuns returns an empty memo of runs at scale s.
func NewRuns(s Scale) *Runs {
	return &Runs{Scale: s, runs: map[runKey]*Run{}, more: map[runKey][]*Run{}}
}

// Get returns the run of (kind, opts), measuring it on first use.
func (r *Runs) Get(kind workload.Kind, opts baseline.WGSOptions) (*Run, error) {
	k := runKey{kind, opts}
	if run, ok := r.runs[k]; ok {
		return run, nil
	}
	run, err := r.measure(k)
	if err != nil {
		return nil, err
	}
	r.runs[k] = run
	return run, nil
}

// medianRuns is how many measured runs Fig 10's trace (and so Table 5's)
// takes each task's median wall from. The 2 048-core makespan is set by a
// few skewed tasks (IndelRealign's hotspot partition, the pair-HMM-bound
// caller partitions), so a single run's efficiency moves with whatever
// slowed those tasks.
const medianRuns = 5

// median returns the per-task median (medianWalls) of medianRuns runs of
// (kind, opts): Get's run and medianRuns-1 more, each measured on first use
// and kept.
func (r *Runs) median(kind workload.Kind, opts baseline.WGSOptions) (*Run, error) {
	first, err := r.Get(kind, opts)
	if err != nil {
		return nil, err
	}
	k := runKey{kind, opts}
	for len(r.more[k]) < medianRuns-1 {
		run, err := r.measure(k)
		if err != nil {
			return nil, err
		}
		r.more[k] = append(r.more[k], run)
	}
	return medianWalls(append([]*Run{first}, r.more[k]...))
}

// measure runs configuration k once on a fresh in-process Context.
func (r *Runs) measure(k runKey) (*Run, error) {
	ctx := engine.NewContext(r.Scale.Workers)
	start := time.Now()
	run, err := driveWGS(ctx, k.kind, ScalingSpec{Scale: r.Scale, Opts: k.opts})
	if err != nil {
		return nil, err
	}
	run.Metrics, run.Wall = ctx.Metrics(), time.Since(start)
	return run, nil
}

// medianWalls returns runs[0] with every task's wall and every stage's
// driver time replaced by their median over runs: one task's wall in one run
// moves with GC and machine load, and a paper-scale makespan is set by a few
// such tasks. The runs must be measurements of one configuration: the same
// stages, task counts and VCF, or it errors.
func medianWalls(runs []*Run) (*Run, error) {
	base := runs[0]
	m := engine.Metrics{Stages: slices.Clone(base.Metrics.Stages)}
	for _, run := range runs[1:] {
		if !bytes.Equal(run.VCF, base.VCF) || len(run.Metrics.Stages) != len(m.Stages) {
			return nil, errors.New("experiments: median of runs that differ in VCF or stage count")
		}
		for i, s := range run.Metrics.Stages {
			if s.Name != m.Stages[i].Name || len(s.Tasks) != len(m.Stages[i].Tasks) {
				return nil, fmt.Errorf("experiments: median of runs that differ at stage %d (%s)", i, s.Name)
			}
		}
	}
	median := func(at func(*Run) time.Duration) time.Duration {
		v := make([]time.Duration, len(runs))
		for i, run := range runs {
			v[i] = at(run)
		}
		slices.Sort(v)
		return v[len(v)/2]
	}
	for i := range m.Stages {
		m.Stages[i].DriverTime = median(func(run *Run) time.Duration { return run.Metrics.Stages[i].DriverTime })
		m.Stages[i].Tasks = slices.Clone(m.Stages[i].Tasks)
		for j := range m.Stages[i].Tasks {
			m.Stages[i].Tasks[j].Wall = median(func(run *Run) time.Duration { return run.Metrics.Stages[i].Tasks[j].Wall })
		}
	}
	med := *base
	med.Metrics = m
	return &med, nil
}

// trace converts the run into the paper-scale trace: calibrated to the
// paper's dataset size, task CPU anchored to the paper's tools, tasks refined
// to targetTasks per stage.
func (run *Run) trace(targetTasks int) cluster.Trace {
	cpuScale, byteScale := calibration(run.Data)
	tr := cluster.TraceFromMetrics(run.Metrics, cpuScale, byteScale)
	anchorTools(tr)
	return refine(tr, targetTasks)
}

// phaseOf buckets a stage name into the pipeline phase it belongs to.
func phaseOf(stageName string) string {
	switch {
	case strings.Contains(stageName, "Bwa") || strings.Contains(stageName, "bwa"):
		return "Aligner"
	case strings.Contains(stageName, "HaplotypeCaller") || strings.Contains(stageName, "haplotype"):
		return "Caller"
	default:
		return "Cleaner"
	}
}

// minutes renders a duration in fractional minutes.
func minutes(d time.Duration) float64 { return d.Minutes() }

// gb renders bytes in gigabytes.
func gb(b int64) float64 { return float64(b) / 1e9 }

// row formats a table row with a fixed label column.
func row(label string, cells ...string) string {
	return fmt.Sprintf("%-34s %s", label, strings.Join(cells, "  "))
}
