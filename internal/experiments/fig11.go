package experiments

import (
	"fmt"
	"time"

	"github.com/gpf-go/gpf/internal/baseline"
	"github.com/gpf-go/gpf/internal/cluster"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/workload"
)

// Fig11Series is one system's per-core-count stage times.
type Fig11Series struct {
	System baseline.System
	// Seconds[i] is the stage time at Cores[i].
	Seconds []float64
}

// Fig11Panel is one panel of Figure 11 (a: MarkDuplicate, b: BQSR,
// c: INDEL realignment).
type Fig11Panel struct {
	Name   string
	Cores  []int
	Series []Fig11Series
}

// Fig11AlignerPoint is one core count of panel (d): aligner throughput.
type Fig11AlignerPoint struct {
	Cores          int
	GPFBWA         float64 // gigabases aligned per second, paired-end
	PersonaBWA     float64 // single-end compute only
	PersonaRealBWA float64 // including AGD conversion (the red line)
}

// Fig11Result reproduces Figure 11: per-stage strong scaling against ADAM,
// GATK4 and Persona, plus aligner throughput.
type Fig11Result struct {
	Panels  []Fig11Panel
	Aligner []Fig11AlignerPoint
	// Speedups captures the headline ratios at the mid core count.
	SpeedupOverADAM  map[string]float64
	SpeedupOverGATK4 map[string]float64
}

// fig11Cores are the x-axis of the figure.
var fig11Cores = []int{128, 256, 512, 1024}

// Fig11 measures every stage/system pair once and replays the traces; panel
// (d) replays the Aligner stages of the GPF run.
func Fig11(runs *Runs) (*Fig11Result, error) {
	s := runs.Scale
	d := s.dataset(workload.WGS)
	rt := s.newRuntime(engine.NewContext(s.Workers), d)
	cpuScale, byteScale := calibration(d)

	// Aligned input shared by every stage run.
	records, err := alignAll(rt, d.Pairs)
	if err != nil {
		return nil, err
	}

	stages := []struct {
		name    string
		step    baseline.Step
		systems []baseline.StageStyle
	}{
		{"Mark Duplicate", baseline.MarkDuplicate,
			[]baseline.StageStyle{baseline.StyleGPF(), baseline.StyleADAM(), baseline.StyleGATK4(), baseline.StylePersona()}},
		{"BQSR", baseline.BaseRecalibration,
			[]baseline.StageStyle{baseline.StyleGPF(), baseline.StyleADAM(), baseline.StyleGATK4()}},
		{"INDEL Realignment", baseline.IndelRealign,
			[]baseline.StageStyle{baseline.StyleGPF(), baseline.StyleADAM()}},
	}

	res := &Fig11Result{
		SpeedupOverADAM:  map[string]float64{},
		SpeedupOverGATK4: map[string]float64{},
	}
	cfg := cluster.PaperCluster()
	for _, st := range stages {
		panel := Fig11Panel{Name: st.name, Cores: fig11Cores}
		for _, style := range st.systems {
			m, err := baseline.RunStage(rt, records, style, st.step)
			if err != nil {
				return nil, err
			}
			tr := refine(cluster.TraceFromMetrics(m, cpuScale, byteScale), 2048)
			series := Fig11Series{System: style.System}
			for _, c := range fig11Cores {
				sim := cluster.Simulate(tr, cfg, c, cluster.SparkOptions())
				series.Seconds = append(series.Seconds, sim.Makespan.Seconds())
			}
			panel.Series = append(panel.Series, series)
		}
		res.Panels = append(res.Panels, panel)
		// Headline ratios at 512 cores (index 2).
		var gpf, adam, gatk float64
		for _, se := range panel.Series {
			switch se.System {
			case baseline.GPF:
				gpf = se.Seconds[2]
			case baseline.ADAM:
				adam = se.Seconds[2]
			case baseline.GATK4:
				gatk = se.Seconds[2]
			}
		}
		if gpf > 0 && adam > 0 {
			res.SpeedupOverADAM[st.name] = adam / gpf
		}
		if gpf > 0 && gatk > 0 {
			res.SpeedupOverGATK4[st.name] = gatk / gpf
		}
	}

	// Panel (d): aligner throughput. GPF aligns paired-end through the
	// pipeline's aligner stage; Persona aligns single-end and pays AGD
	// conversion serially. On a fresh Runs the GPF run is measured here, next
	// to Persona's, after the stage runs.
	gpfRun, err := runs.Get(workload.WGS, baseline.GPFOptions())
	if err != nil {
		return nil, err
	}
	var gpfAlignMetrics engine.Metrics
	for _, stg := range gpfRun.Metrics.Stages {
		if phaseOf(stg.Name) == "Aligner" {
			gpfAlignMetrics.Stages = append(gpfAlignMetrics.Stages, stg)
		}
	}
	gpfTrace := refine(cluster.TraceFromMetrics(gpfAlignMetrics, cpuScale, byteScale), 2048)

	rtP := s.newRuntime(engine.NewContext(s.Workers), d)
	pMetrics, fastqBytes, err := baseline.RunPersonaAlign(rtP, d.Pairs)
	if err != nil {
		return nil, err
	}
	pTrace := refine(cluster.TraceFromMetrics(pMetrics, cpuScale, byteScale), 2048)
	model := baseline.DefaultPersonaModel()
	paperFASTQ := int64(float64(fastqBytes) * byteScale)
	conversion := model.ConversionTime(paperFASTQ, paperFASTQ*6/10)

	// Absolute alignment throughput is anchored to real BWA-MEM per-core
	// speed (bwaMbasePerSecPerCore): the Go kernel's per-base cost differs
	// from optimized C, so we keep our measured scaling *shape* and
	// normalize the absolute level. The AGD conversion charge stays
	// absolute, exactly as the paper's §5.2.3 argument requires.
	paperBases := int64(PaperBases)
	anchorSeconds := PaperBases / (bwaMbasePerSecPerCore * 1e6 * 128)
	anchor128 := time.Duration(anchorSeconds * float64(time.Second))
	g128 := cluster.Simulate(gpfTrace, cfg, 128, cluster.SparkOptions())
	norm := 1.0
	if g128.Makespan > 0 {
		norm = float64(anchor128) / float64(g128.Makespan)
	}
	for _, c := range []int{128, 256, 512} {
		g := cluster.Simulate(gpfTrace, cfg, c, cluster.SparkOptions())
		p := cluster.Simulate(pTrace, cfg, c, cluster.SparkOptions())
		gTime := time.Duration(float64(g.Makespan) * norm)
		pTime := time.Duration(float64(p.Makespan) * norm)
		res.Aligner = append(res.Aligner, Fig11AlignerPoint{
			Cores:          c,
			GPFBWA:         baseline.AlignmentThroughput(paperBases, gTime),
			PersonaBWA:     baseline.AlignmentThroughput(paperBases, pTime),
			PersonaRealBWA: baseline.AlignmentThroughput(paperBases, pTime+conversion),
		})
	}
	return res, nil
}

// Format renders all four panels.
func (r *Fig11Result) Format() []string {
	var out []string
	for _, panel := range r.Panels {
		out = append(out, fmt.Sprintf("Figure 11: %s (seconds)", panel.Name))
		header := row("cores")
		for _, se := range panel.Series {
			header += fmt.Sprintf("  %10s", se.System)
		}
		out = append(out, header)
		for i, c := range panel.Cores {
			line := row(fmt.Sprintf("%d", c))
			for _, se := range panel.Series {
				line += fmt.Sprintf("  %10.0f", se.Seconds[i])
			}
			out = append(out, line)
		}
	}
	// Speedup lines in panel order, not map order.
	for _, panel := range r.Panels {
		if sp, ok := r.SpeedupOverADAM[panel.Name]; ok {
			out = append(out, fmt.Sprintf("GPF over ADAM, %s: %.1fx", panel.Name, sp))
		}
	}
	for _, panel := range r.Panels {
		if sp, ok := r.SpeedupOverGATK4[panel.Name]; ok {
			out = append(out, fmt.Sprintf("GPF over GATK4, %s: %.1fx", panel.Name, sp))
		}
	}
	out = append(out, "Figure 11(d): aligner throughput (Gbases/s)")
	out = append(out, row("cores", "    GPF BWA", "Persona BWA", "Persona real"))
	for _, p := range r.Aligner {
		out = append(out, row(
			fmt.Sprintf("%d", p.Cores),
			fmt.Sprintf("%11.3f", p.GPFBWA),
			fmt.Sprintf("%11.3f", p.PersonaBWA),
			fmt.Sprintf("%12.4f", p.PersonaRealBWA),
		))
	}
	return out
}
