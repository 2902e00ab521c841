package baseline

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/gpf-go/gpf/internal/align"
	"github.com/gpf-go/gpf/internal/cluster"
	"github.com/gpf-go/gpf/internal/core"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
)

func testSetup(t *testing.T, coverage float64) (*core.Runtime, []fastq.Pair) {
	t.Helper()
	ref := genome.Synthesize(genome.DefaultSynthConfig(1000, 30000, 1))
	rt := core.NewRuntime(engine.NewContext(2), ref)
	rt.PartitionLen = 5000
	donor := genome.Mutate(ref, genome.DefaultMutateConfig(1001))
	pairs := fastq.Simulate(donor, fastq.DefaultSimConfig(1002, coverage))
	return rt, pairs
}

func alignedRecords(t *testing.T, rt *core.Runtime, pairs []fastq.Pair) []sam.Record {
	t.Helper()
	idx, err := rt.Index()
	if err != nil {
		t.Fatal(err)
	}
	aligner := align.NewAligner(idx, rt.AlignerConfig)
	var out []sam.Record
	for i := range pairs {
		r1, r2 := aligner.AlignPair(&pairs[i])
		out = append(out, r1, r2)
	}
	return out
}

func TestSystemNames(t *testing.T) {
	names := map[System]string{GPF: "GPF", Churchill: "Churchill", ADAM: "ADAM", GATK4: "GATK4", Persona: "Persona"}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}

// TestAddFileHandoff: one tool's handoff is one stage of a task per region,
// each writing and reading the tool's intermediate file and doing no compute.
func TestAddFileHandoff(t *testing.T) {
	s := FileHandoff("MarkDuplicate", 3, 1000, 30*time.Second)
	if s.Name != "MarkDuplicate/handoff" || len(s.Tasks) != 3 {
		t.Fatalf("handoff stage %+v", s)
	}
	for _, task := range s.Tasks {
		if task != (cluster.TaskWork{ReadBytes: 1000, WriteBytes: 1000}) {
			t.Fatalf("handoff task %+v", task)
		}
	}
}

// TestSerialScatterGather: the driver's serial merge of the region outputs is
// the handoff stage's driver step.
func TestSerialScatterGather(t *testing.T) {
	for _, merge := range []time.Duration{3 * time.Second, 30 * time.Second} {
		if s := FileHandoff("BaseRecalibration", 4, 1, merge); s.Driver != merge {
			t.Fatalf("merge %v: driver step %v", merge, s.Driver)
		}
	}
}

// processRows lists m's stage rows by name and kind, leaving out the ops
// RunStage adds around a Process: the style's conversions and the materialize
// action.
func processRows(m engine.Metrics) []string {
	var rows []string
	for _, s := range m.Stages {
		var ops []string
		for _, op := range strings.Split(s.Name, "+") {
			if !strings.Contains(op, "/convert-") && !strings.HasSuffix(op, "/materialize") {
				ops = append(ops, op)
			}
		}
		if len(ops) > 0 {
			rows = append(rows, fmt.Sprintf("%s (kind %d)", strings.Join(ops, "+"), s.Kind))
		}
	}
	return rows
}

// TestRunStageRunsPipelineProcess: Fig 11 times what the pipeline runs. Under
// every style, RunStage records the same stage rows, by name and kind, as the
// WGS pipeline's own Process run directly on the same records, apart from the
// convert and materialize ops: the shuffle key, the passes and the broadcasts
// are core's. Only the bytes those rows move differ (TestStageStylesOrdering).
func TestRunStageRunsPipelineProcess(t *testing.T) {
	rt, pairs := testSetup(t, 6)
	if len(pairs) > 300 {
		pairs = pairs[:300]
	}
	records := alignedRecords(t, rt, pairs)
	direct := map[Step]func(info *core.PartitionInfoBundle, in, out *core.SAMBundle) core.Process{
		MarkDuplicate: func(_ *core.PartitionInfoBundle, in, out *core.SAMBundle) core.Process {
			return core.NewMarkDuplicateProcess("MarkDuplicate", in, out)
		},
		IndelRealign: func(info *core.PartitionInfoBundle, in, out *core.SAMBundle) core.Process {
			return core.NewIndelRealignProcess("IndelRealign", info, in, out)
		},
		BaseRecalibration: func(info *core.PartitionInfoBundle, in, out *core.SAMBundle) core.Process {
			return core.NewBaseRecalibrationProcess("BaseRecalibration", info, in, out)
		},
	}
	for step, newProc := range direct {
		rt.Engine.ResetMetrics()
		info, err := core.NewPartitionInfo(rt.Ref.Lengths(), rt.PartitionLen)
		if err != nil {
			t.Fatal(err)
		}
		infoIn := core.UndefinedPartitionInfo("partitionInfo")
		infoIn.Info = info
		in := core.DefinedSAM("in", nil,
			engine.WithCodec(engine.Parallelize(rt.Engine, records, rt.NumPartitions), rt.SAMCodec()))
		out := core.UndefinedSAM("out", nil)
		if err := newProc(infoIn, in, out).Run(rt); err != nil {
			t.Fatal(err)
		}
		flat, err := out.EnsureFlat(rt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engine.Count("direct/materialize", flat); err != nil {
			t.Fatal(err)
		}
		want := processRows(rt.Engine.Metrics())
		if len(want) == 0 {
			t.Fatalf("%v: the Process recorded no stage", step)
		}
		for _, style := range []StageStyle{StyleGPF(), StyleADAM(), StyleGATK4(), StylePersona()} {
			m, err := RunStage(rt, records, style, step)
			if err != nil {
				t.Fatalf("%v %v: %v", style.System, step, err)
			}
			if got := processRows(m); !slices.Equal(got, want) {
				t.Fatalf("%v %v: RunStage rows\n%q\nthe Process's own rows\n%q", style.System, step, got, want)
			}
		}
	}
}

// convertOps counts the style conversion ops among m's stage rows.
func convertOps(m engine.Metrics) int {
	n := 0
	for _, s := range m.Stages {
		n += strings.Count(s.Name, "/convert-")
	}
	return n
}

// TestStageStylesOrdering: the Fig 11 shape. What a style adds shows in what
// the same rows move: on every step the genomic codec shuffles fewer bytes
// than the generic tiers, and ADAM pays the conversions GATK4 does not.
func TestStageStylesOrdering(t *testing.T) {
	rt, pairs := testSetup(t, 6)
	if len(pairs) > 300 {
		pairs = pairs[:300]
	}
	records := alignedRecords(t, rt, pairs)
	for _, step := range []Step{MarkDuplicate, IndelRealign, BaseRecalibration} {
		byStyle := map[System]engine.Metrics{}
		for _, style := range []StageStyle{StyleGPF(), StyleADAM(), StyleGATK4(), StylePersona()} {
			m, err := RunStage(rt, records, style, step)
			if err != nil {
				t.Fatalf("%v %v: %v", style.System, step, err)
			}
			byStyle[style.System] = m
		}
		gpfBytes := byStyle[GPF].TotalShuffleBytes()
		for _, sys := range []System{ADAM, GATK4, Persona} {
			if b := byStyle[sys].TotalShuffleBytes(); b <= gpfBytes {
				t.Fatalf("%v %v: shuffled %d bytes, GPF %d", sys, step, b, gpfBytes)
			}
		}
		if a, g := convertOps(byStyle[ADAM]), convertOps(byStyle[GATK4]); a != 2 || g != 0 {
			t.Fatalf("%v: ADAM ran %d conversions, GATK4 %d; want 2 and 0", step, a, g)
		}
		if a, g := byStyle[ADAM].NumStages(), byStyle[GATK4].NumStages(); a <= g {
			t.Fatalf("%v: ADAM stages %d should exceed GATK4 %d", step, a, g)
		}
	}
}

// TestBQSRStageHasSerialCollect: BaseRecalibration collects its covariate
// table to the driver and broadcasts it back, so its stage has at least two
// action rows.
func TestBQSRStageHasSerialCollect(t *testing.T) {
	rt, pairs := testSetup(t, 6)
	if len(pairs) > 300 {
		pairs = pairs[:300]
	}
	records := alignedRecords(t, rt, pairs)
	m, err := RunStage(rt, records, StyleGPF(), BaseRecalibration)
	if err != nil {
		t.Fatal(err)
	}
	actions := 0
	for _, s := range m.Stages {
		if s.Kind == engine.StageAction {
			actions++
		}
	}
	if actions < 2 {
		t.Fatalf("BQSR should have collect+broadcast actions, found %d", actions)
	}
}

func TestRealignStageRuns(t *testing.T) {
	rt, pairs := testSetup(t, 6)
	if len(pairs) > 300 {
		pairs = pairs[:300]
	}
	records := alignedRecords(t, rt, pairs)
	m, err := RunStage(rt, records, StyleGATK4(), IndelRealign)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStages() == 0 || m.TotalTaskTime() <= 0 {
		t.Fatal("realign stage produced no metrics")
	}
}

func TestPersonaModel(t *testing.T) {
	m := DefaultPersonaModel()
	// 360 MB at 360 MB/s = 1s in; 82 MB at 82 MB/s = 1s out.
	got := m.ConversionTime(360e6, 82e6)
	if got < 1900*time.Millisecond || got > 2100*time.Millisecond {
		t.Fatalf("conversion time = %v, want ~2s", got)
	}
}

func TestRunPersonaAlign(t *testing.T) {
	rt, pairs := testSetup(t, 4)
	if len(pairs) > 100 {
		pairs = pairs[:100]
	}
	m, fastqBytes, err := RunPersonaAlign(rt, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if fastqBytes == 0 {
		t.Fatal("fastq bytes not accounted")
	}
	if m.TotalTaskTime() <= 0 {
		t.Fatal("no alignment work recorded")
	}
}

func TestAlignmentThroughput(t *testing.T) {
	if got := AlignmentThroughput(2e9, 2*time.Second); got != 1 {
		t.Fatalf("throughput = %v, want 1 Gb/s", got)
	}
	if AlignmentThroughput(1, 0) != 0 {
		t.Fatal("zero wall should yield 0")
	}
}
