package baseline

import (
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

func TestAddFileHandoff(t *testing.T) {
	tr := cluster.Trace{Stages: []cluster.StageWork{{
		Name:  "s",
		Tasks: []cluster.TaskWork{{CPU: time.Second, ReadBytes: 10, WriteBytes: 20}},
	}}}
	out := AddFileHandoff(tr, 1000)
	task := out.Stages[0].Tasks[0]
	if task.ReadBytes != 1010 || task.WriteBytes != 1020 {
		t.Fatalf("handoff bytes: %+v", task)
	}
	// Original unchanged.
	if tr.Stages[0].Tasks[0].ReadBytes != 10 {
		t.Fatal("input trace mutated")
	}
}

func TestSerialScatterGather(t *testing.T) {
	tr := cluster.Trace{Stages: []cluster.StageWork{{Name: "a"}, {Name: "b"}}}
	out := SerialScatterGather(tr, 3*time.Second)
	if out.Stages[0].Driver != 3*time.Second || out.Stages[1].Driver != 3*time.Second {
		t.Fatalf("driver time not added: %+v", out.Stages)
	}
}

func TestStageStylesOrdering(t *testing.T) {
	// The Fig 11 shape: GPF's stage must move fewer shuffle bytes and spend
	// less serialize+task time than ADAM's and GATK4's for the same input.
	rt, pairs := testSetup(t, 6)
	if len(pairs) > 400 {
		pairs = pairs[:400]
	}
	records := alignedRecords(t, rt, pairs)

	gpfM, err := RunMarkDupStage(rt, records, StyleGPF())
	if err != nil {
		t.Fatal(err)
	}
	adamM, err := RunMarkDupStage(rt, records, StyleADAM())
	if err != nil {
		t.Fatal(err)
	}
	gatkM, err := RunMarkDupStage(rt, records, StyleGATK4())
	if err != nil {
		t.Fatal(err)
	}
	if gpfM.TotalShuffleBytes() >= adamM.TotalShuffleBytes() {
		t.Fatalf("GPF shuffle %d should be < ADAM %d",
			gpfM.TotalShuffleBytes(), adamM.TotalShuffleBytes())
	}
	if gpfM.TotalShuffleBytes() >= gatkM.TotalShuffleBytes() {
		t.Fatalf("GPF shuffle %d should be < GATK4 %d",
			gpfM.TotalShuffleBytes(), gatkM.TotalShuffleBytes())
	}
	// ADAM pays conversion stages GATK4 does not.
	if adamM.NumStages() <= gatkM.NumStages() {
		t.Fatalf("ADAM stages %d should exceed GATK4 %d", adamM.NumStages(), gatkM.NumStages())
	}
}

func TestBQSRStageHasSerialCollect(t *testing.T) {
	rt, pairs := testSetup(t, 6)
	if len(pairs) > 300 {
		pairs = pairs[:300]
	}
	records := alignedRecords(t, rt, pairs)
	m, err := RunBQSRStage(rt, records, StyleGPF())
	if err != nil {
		t.Fatal(err)
	}
	// A reduce (collect) and a broadcast must appear as action stages.
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
	m, err := RunRealignStage(rt, records, StyleGATK4())
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
