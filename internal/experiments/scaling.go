package experiments

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"github.com/gpf-go/gpf/internal/baseline"
	"github.com/gpf-go/gpf/internal/cluster"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/engine/exec/mproc"
	"github.com/gpf-go/gpf/internal/workload"
)

// ScalingJobName is the registered mproc job running the full WGS pipeline —
// the workload behind the multi-process scaling experiment and the
// -backend=mproc CLI path.
const ScalingJobName = "exp-scaling-wgs"

// ScalingSpec is the wire spec of the scaling job. Every rank decodes the
// same spec and synthesizes the same dataset from the same seed, which is
// what keeps the SPMD ranks' stage sequences identical.
type ScalingSpec struct {
	Scale Scale
	Opts  baseline.WGSOptions
	// InjectMapError makes a map task fail on whichever rank owns input
	// partition 1 — the worker-side failure-propagation probe.
	InjectMapError bool
}

// EncodeScalingSpec serializes a spec for mproc.Run.
func EncodeScalingSpec(sp ScalingSpec) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sp); err != nil {
		return nil, fmt.Errorf("scaling: encode spec: %w", err)
	}
	return buf.Bytes(), nil
}

func init() {
	mproc.RegisterJob(ScalingJobName, func(ctx *engine.Context, spec []byte) ([]byte, error) {
		var sp ScalingSpec
		if err := gob.NewDecoder(bytes.NewReader(spec)).Decode(&sp); err != nil {
			return nil, fmt.Errorf("%s: decode spec: %w", ScalingJobName, err)
		}
		run, err := driveWGS(ctx, workload.WGS, sp)
		if err != nil {
			return nil, err
		}
		return run.VCF, nil
	})
}

// ScalingPoint is one process count of the scaling experiment.
type ScalingPoint struct {
	Procs        int
	Measured     time.Duration
	Predicted    time.Duration // simulator oracle, replayed from the W=1 trace
	ShuffleBytes int64
	FetchWait    time.Duration
	Identical    bool // output byte-identical to the W=1 run
}

// ScalingResult is the multi-process scaling experiment: measured wall time
// per worker-process count next to the simulator oracle's prediction.
type ScalingResult struct {
	Slots  int
	Points []ScalingPoint
}

// scalingProcs is the default curve.
var scalingProcs = []int{1, 2, 4, 8}

// Scaling measures the WGS pipeline across W = 1, 2, 4, 8 processes and
// replays the W=1 metrics through the simulator for the predicted curve.
func Scaling(s Scale) (*ScalingResult, error) {
	return ScalingAt(s, scalingProcs)
}

// ScalingAt is Scaling at explicit process counts (tests use a short list).
func ScalingAt(s Scale, procs []int) (*ScalingResult, error) {
	maxW := 1
	for _, w := range procs {
		if w > maxW {
			maxW = w
		}
	}
	// Every rank must own work at the largest W: keep at least two partitions
	// per process so the measured curve reflects transport, not idle ranks.
	if s.NumPartitions < 2*maxW {
		s.NumPartitions = 2 * maxW
	}
	slots := s.Workers
	if slots < 1 {
		slots = 1
	}
	spec, err := EncodeScalingSpec(ScalingSpec{Scale: s, Opts: baseline.GPFOptions()})
	if err != nil {
		return nil, err
	}
	res := &ScalingResult{Slots: slots}
	var ref []byte
	var base engine.Metrics
	for i, w := range procs {
		r, err := mproc.Run(ScalingJobName, spec, mproc.Options{Procs: w, Slots: slots})
		if err != nil {
			return nil, fmt.Errorf("scaling: W=%d: %w", w, err)
		}
		if i == 0 {
			ref = r.Output
			base = r.Metrics
		}
		res.Points = append(res.Points, ScalingPoint{
			Procs:        w,
			Measured:     r.Wall,
			ShuffleBytes: r.Metrics.TotalShuffleBytes(),
			FetchWait:    r.Metrics.TotalFetchWait(),
			Identical:    bytes.Equal(r.Output, ref),
		})
	}
	for i, p := range cluster.PredictScaling(base, slots, procs) {
		res.Points[i].Predicted = p.Makespan
	}
	return res, nil
}

// Format renders the scaling table.
func (r *ScalingResult) Format() []string {
	out := []string{
		fmt.Sprintf("Multi-process scaling: measured vs simulator prediction (%d slots/process)", r.Slots),
		row("W (processes)", "  measured", " predicted", "shuffle GB", "fetch-wait", "identical"),
	}
	for _, p := range r.Points {
		out = append(out, row(
			fmt.Sprintf("%d", p.Procs),
			fmt.Sprintf("%9.2fs", p.Measured.Seconds()),
			fmt.Sprintf("%9.2fs", p.Predicted.Seconds()),
			fmt.Sprintf("%10.4f", gb(p.ShuffleBytes)),
			fmt.Sprintf("%9.2fs", p.FetchWait.Seconds()),
			fmt.Sprintf("%9v", p.Identical),
		))
	}
	return out
}

// RunWGSOn executes the WGS pipeline once on the named executor backend —
// the `gpf-bench -exp wgs -backend=...` path. backend is "inproc" or "mproc";
// procs only matters for mproc, and the in-process header reports the one
// process it ran. It prints each shuffle's bytes and every stage's heap at
// stage end, with the peak. The in-process run is runs' GPF run, the one the paper
// figures read, and doubles as the planning oracle: its metrics replay
// through the cluster model for the predicted W=1..8 curve.
func RunWGSOn(runs *Runs, backend string, procs int) ([]string, error) {
	slots := runs.Scale.Workers
	if slots < 1 {
		slots = 1
	}
	var run *Run
	switch backend {
	case "mproc":
		spec, err := EncodeScalingSpec(ScalingSpec{Scale: runs.Scale, Opts: baseline.GPFOptions()})
		if err != nil {
			return nil, err
		}
		r, err := mproc.Run(ScalingJobName, spec, mproc.Options{Procs: procs, Slots: slots})
		if err != nil {
			return nil, err
		}
		run = &Run{Metrics: r.Metrics, VCF: r.Output, Wall: r.Wall}
	case "inproc", "":
		backend, procs = "inproc", 1
		var err error
		if run, err = runs.Get(workload.WGS, baseline.GPFOptions()); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown backend %q (inproc|mproc)", backend)
	}
	metrics := run.Metrics
	lines := []string{
		fmt.Sprintf("WGS pipeline on backend=%s (procs=%d, slots=%d)", backend, procs, slots),
		row("wall", fmt.Sprintf("%.2fs", run.Wall.Seconds())),
		row("output VCF bytes", fmt.Sprintf("%d", len(run.VCF))),
		row("stages", fmt.Sprintf("%d", metrics.NumStages())),
		row("shuffle GB", fmt.Sprintf("%.4f", gb(metrics.TotalShuffleBytes()))),
		row("fetch wait", fmt.Sprintf("%.3fs", metrics.TotalFetchWait().Seconds())),
		row("codec decode", fmt.Sprintf("decoded %.3f MB", float64(metrics.TotalDecodedBytes())/1e6),
			fmt.Sprintf("pruned %.3f MB", float64(metrics.TotalPrunedBytes())/1e6)),
	}
	// Per-stage shuffle accounting: which stages move bytes.
	for i := range metrics.Stages {
		st := &metrics.Stages[i]
		w := st.ShuffleWriteBytes()
		if st.Kind != engine.StageShuffle && w == 0 {
			continue
		}
		lines = append(lines, row("  shuffle "+st.Name,
			fmt.Sprintf("write %8.3f MB", float64(w)/1e6),
			fmt.Sprintf("read %8.3f MB", float64(st.ShuffleReadBytes())/1e6)))
	}
	// Per-stage heap at stage end (largest rank under mproc): what the run
	// still holds after each stage, and the stage where that peaks.
	peak := 0
	for i := range metrics.Stages {
		st := &metrics.Stages[i]
		lines = append(lines, row("  heap "+st.Name, fmt.Sprintf("%8.1f MB", float64(st.HeapBytes)/1e6)))
		if st.HeapBytes > metrics.Stages[peak].HeapBytes {
			peak = i
		}
	}
	if len(metrics.Stages) > 0 {
		st := &metrics.Stages[peak]
		lines = append(lines, row("peak heap", fmt.Sprintf("%.1f MB", float64(st.HeapBytes)/1e6), "after "+st.Name))
	}
	if backend == "inproc" {
		for _, p := range cluster.PredictScaling(metrics, slots, scalingProcs) {
			lines = append(lines, row(
				fmt.Sprintf("oracle W=%d", p.Procs),
				fmt.Sprintf("predicted %.2fs", p.Makespan.Seconds()),
				fmt.Sprintf("speedup %.2fx", p.Speedup),
			))
		}
	}
	return lines, nil
}
