package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/vcf"
	"github.com/gpf-go/gpf/internal/workload"
)

func TestMultiSampleWGS(t *testing.T) {
	// Two samples over one reference, distinct donors.
	ref := genome.Synthesize(genome.DefaultSynthConfig(950, 30000, 3))
	rt := NewRuntime(engine.NewContext(2), ref)
	rt.PartitionLen = 5000
	var samples []SampleInput
	for i := range 2 {
		seed := int64(950 + 1000*(i+1))
		donor := genome.Mutate(ref, genome.DefaultMutateConfig(seed))
		if i == 0 {
			rt.Known = workload.KnownSites(ref, donor, seed+2)
		}
		pairs := fastq.Simulate(donor, fastq.DefaultSimConfig(seed+1, 8))
		samples = append(samples, SampleInput{Name: fmt.Sprintf("sample%d", i+1), Pairs: PairsToRDD(rt, pairs, 4)})
	}
	multi, err := BuildMultiSampleWGS(rt, samples, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := multi.Pipeline.Run(); err != nil {
		t.Fatal(err)
	}
	if len(multi.VCFs) != 2 {
		t.Fatalf("VCFs = %d", len(multi.VCFs))
	}
	// Each sample's deduped records are read by the shared census and by the
	// sample's IndelRealign, so the pipeline releases them after the latter.
	released := 0
	for _, proc := range multi.Pipeline.processes {
		if strings.HasSuffix(proc.ProcessName(), "/MarkDuplicate") {
			deduped := proc.Outputs()[0]
			if deduped.State() != Released {
				t.Errorf("%s is %v after Run, want Released", deduped.ResourceName(), deduped.State())
			}
			released++
		}
	}
	if released != 2 {
		t.Fatalf("found %d deduped resources, want 2", released)
	}
	// Both samples produce calls, and the calls differ (different donors).
	callsA, err := CollectVCF(rt, multi.VCFs[0])
	if err != nil {
		t.Fatal(err)
	}
	callsB, err := CollectVCF(rt, multi.VCFs[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(callsA) == 0 || len(callsB) == 0 {
		t.Fatalf("sample calls: %d / %d", len(callsA), len(callsB))
	}
	same := 0
	for _, a := range callsA {
		for _, b := range callsB {
			if a.Chrom == b.Chrom && a.Pos == b.Pos && a.Alt == b.Alt {
				same++
			}
		}
	}
	if same == len(callsA) && same == len(callsB) {
		t.Fatal("both samples produced identical call sets; donors should differ")
	}
	// One shared census: exactly one ReadRepartitioner in the order, after
	// every MarkDuplicate and before every IndelRealign.
	order := multi.Pipeline.ExecutionOrder()
	repIdx := -1
	for i, n := range order {
		if n == "ReadRepartitioner" {
			if repIdx != -1 {
				t.Fatal("repartitioner ran twice")
			}
			repIdx = i
		}
	}
	if repIdx == -1 {
		t.Fatal("repartitioner missing")
	}
	for i, n := range order {
		if strings.Contains(n, "MarkDuplicate") && i > repIdx {
			t.Fatalf("MarkDuplicate %q after the census", n)
		}
		if strings.Contains(n, "IndelRealign") && i < repIdx {
			t.Fatalf("IndelRealign %q before the census", n)
		}
	}
}

// TestMultiSampleOneSampleIsWGS: one sample through BuildMultiSampleWGS runs
// BuildWGSPipeline's Processes, each named behind "sample1/" except the
// shared census, in BuildWGSPipeline's order, and writes its VCF body.
func TestMultiSampleOneSampleIsWGS(t *testing.T) {
	body := func(h *vcf.Header, calls []vcf.Record) string {
		var buf bytes.Buffer
		if err := vcf.Write(&buf, h, calls); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, l := range strings.Split(buf.String(), "\n") {
			if !strings.HasPrefix(l, "#") {
				lines = append(lines, l)
			}
		}
		return strings.Join(lines, "\n")
	}

	rt := testRuntime(t, 2)
	pairs := simPairs(t, rt, 6)
	wgs := BuildWGSPipeline(rt, PairsToRDD(rt, pairs, 4), false)
	if err := wgs.Pipeline.Run(); err != nil {
		t.Fatal(err)
	}
	calls, err := CollectVCF(rt, wgs.VCF)
	if err != nil {
		t.Fatal(err)
	}

	mrt := testRuntime(t, 2)
	multi, err := BuildMultiSampleWGS(mrt, []SampleInput{{Name: "sample1", Pairs: PairsToRDD(mrt, pairs, 4)}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := multi.Pipeline.Run(); err != nil {
		t.Fatal(err)
	}
	multiCalls, err := CollectVCF(mrt, multi.VCFs[0])
	if err != nil {
		t.Fatal(err)
	}

	var want []string
	for _, name := range wgs.Pipeline.ExecutionOrder() {
		if name != "ReadRepartitioner" {
			name = "sample1/" + name
		}
		want = append(want, name)
	}
	if got := multi.Pipeline.ExecutionOrder(); !slices.Equal(got, want) {
		t.Fatalf("execution order %v, want %v", got, want)
	}
	if len(calls) == 0 {
		t.Fatal("pipeline called no variants")
	}
	if got, want := body(multi.VCFs[0].Header, multiCalls), body(wgs.VCF.Header, calls); got != want {
		t.Fatalf("one-sample VCF body differs from BuildWGSPipeline's:\n%s\nwant\n%s", got, want)
	}
}

func TestMultiSampleWGSEmpty(t *testing.T) {
	ref := genome.Synthesize(genome.DefaultSynthConfig(1, 1000, 1))
	rt := NewRuntime(engine.NewContext(1), ref)
	if _, err := BuildMultiSampleWGS(rt, nil, false); err == nil {
		t.Fatal("no samples must error")
	}
}

func TestMultiSampleDefaultNames(t *testing.T) {
	ref := genome.Synthesize(genome.DefaultSynthConfig(1, 2000, 1))
	rt := NewRuntime(engine.NewContext(1), ref)
	multi, err := BuildMultiSampleWGS(rt, []SampleInput{
		{Pairs: PairsToRDD(rt, []fastq.Pair{}, 1)},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Names[0] != "sample1" {
		t.Fatalf("default name = %q", multi.Names[0])
	}
}

func TestPipelineProcessFailurePropagates(t *testing.T) {
	rt := testRuntime(t, 1)
	var ran []string
	src := DefinedFASTQPair("src", nil)
	mid := UndefinedSAM("mid", nil)
	end := UndefinedSAM("end", nil)
	failing := newStub("boom", &ran, []Resource{src}, []Resource{mid})
	failing.fail = errors.New("executor lost")
	p := NewPipeline("fail", rt)
	p.AddProcess(failing)
	p.AddProcess(newStub("after", &ran, []Resource{mid}, []Resource{end}))
	err := p.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	// The dependent process must not have run.
	for _, n := range ran {
		if n == "after" {
			t.Fatal("dependent process ran despite failure")
		}
	}
	// The failing process's output must stay undefined.
	if mid.State() == Defined {
		t.Fatal("failed process output marked defined")
	}
}
