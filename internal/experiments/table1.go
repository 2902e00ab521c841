package experiments

import (
	"fmt"
	"time"

	"github.com/gpf-go/gpf/internal/baseline"
	"github.com/gpf-go/gpf/internal/cluster"
	"github.com/gpf-go/gpf/internal/workload"
)

// Table1Row is one line of Table 1: the I/O-versus-CPU split of the
// conventional file-handoff WGS pipeline at a sample count and filesystem.
type Table1Row struct {
	Samples    int
	Cores      int
	Filesystem string
	IOPercent  float64
	CPUPercent float64
}

// Table1Result reproduces Table 1 of the paper.
type Table1Result struct {
	Rows []Table1Row
}

// Calibration anchors for the conventional tool chain. The Go
// reimplementation's per-base speed differs from bwa/GATK's optimized C and
// JVM kernels, so absolute CPU cost is anchored to published tool
// throughput; the *relative* cost of the pipeline phases is taken from a
// real measured run of this repo's pipeline. Shared-FS parameters are fitted
// so the single-sample rows land near the paper's measured 25-29% I/O —
// the experiment's claim is then the contention-driven growth to 60-74% at
// 30 samples, which the model produces mechanistically.
const (
	// conventional tools spend roughly this many core-seconds per megabase
	// across the whole WGS pipeline (bwa ≈ 5-10 core-s/Mbase, cleaning and
	// calling roughly as much again).
	convCoreSecondsPerMbase = 8.0
	// per-sample input, following the paper's "100Gb+ data" batches.
	table1BasesPerSample = 100e9
	// FASTQ bytes per base (name + sequence + quality overhead).
	fastqBytesPerBase = 3.4
)

// table1FS returns the fitted shared-filesystem models for this experiment.
func table1FS() []cluster.SharedFS {
	return []cluster.SharedFS{
		{Name: "Lustre", AggregateMBps: 800, PerClientCapMBps: 700, MetadataPenalty: 1.0},
		{Name: "NFS", AggregateMBps: 500, PerClientCapMBps: 860, MetadataPenalty: 1.0},
	}
}

// Table1 takes the phase proportions from a real pipeline run, anchors
// total compute to conventional-tool throughput, and models the file-handoff
// chain for 1 and 30 concurrent samples on Lustre and NFS.
func Table1(runs *Runs) (*Table1Result, error) {
	// Phase proportions from a real run of the conventional-style pipeline.
	run, err := runs.Get(workload.WGS, baseline.ChurchillOptions())
	if err != nil {
		return nil, err
	}
	phaseCPU := map[string]time.Duration{}
	var totalCPU time.Duration
	for _, st := range run.Metrics.Stages {
		phaseCPU[phaseOf(st.Name)] += st.TaskTime()
		totalCPU += st.TaskTime()
	}
	frac := func(phase string) float64 {
		if totalCPU == 0 {
			return 1.0 / 3
		}
		return float64(phaseCPU[phase]) / float64(totalCPU)
	}

	// Anchored per-sample compute.
	totalCoreSeconds := convCoreSecondsPerMbase * table1BasesPerSample / 1e6

	// Per-sample file volumes.
	fastqBytes := int64(table1BasesPerSample * fastqBytesPerBase)
	samBytes := fastqBytes * 6 / 5
	bamBytes := samBytes / 2

	stageList := func(cores int) []cluster.FileStage {
		phaseWall := func(phase string, share float64) time.Duration {
			return time.Duration(totalCoreSeconds * frac(phase) * share / float64(cores) * float64(time.Second))
		}
		return []cluster.FileStage{
			{Name: "align", CPU: phaseWall("Aligner", 1), ReadBytes: fastqBytes, WriteBytes: samBytes},
			{Name: "sort-index-markdup", CPU: phaseWall("Cleaner", 1.0/3), ReadBytes: samBytes, WriteBytes: bamBytes},
			{Name: "realign", CPU: phaseWall("Cleaner", 1.0/3), ReadBytes: bamBytes, WriteBytes: bamBytes},
			{Name: "recalibrate", CPU: phaseWall("Cleaner", 1.0/3), ReadBytes: bamBytes, WriteBytes: bamBytes},
			{Name: "call", CPU: phaseWall("Caller", 1), ReadBytes: bamBytes, WriteBytes: 1 << 30},
		}
	}

	res := &Table1Result{}
	for _, cfg := range []struct {
		samples, cores int
	}{{1, 96}, {30, 480}} {
		perSampleCores := cfg.cores / cfg.samples
		for _, fs := range table1FS() {
			sim := cluster.SimulateFilePipeline(stageList(perSampleCores), cfg.samples, fs)
			res.Rows = append(res.Rows, Table1Row{
				Samples:    cfg.samples,
				Cores:      cfg.cores,
				Filesystem: fs.Name,
				IOPercent:  sim.IOPercent * 100,
				CPUPercent: (1 - sim.IOPercent) * 100,
			})
		}
	}
	return res, nil
}

// Format renders the table in the paper's layout.
func (r *Table1Result) Format() []string {
	out := []string{row("Table 1: file-handoff pipeline", "I/O Percent", "CPU Percent")}
	for _, rw := range r.Rows {
		out = append(out, row(
			fmt.Sprintf("%d sample(s) %d cores %s", rw.Samples, rw.Cores, rw.Filesystem),
			fmt.Sprintf("%10.0f%%", rw.IOPercent),
			fmt.Sprintf("%10.0f%%", rw.CPUPercent),
		))
	}
	return out
}
