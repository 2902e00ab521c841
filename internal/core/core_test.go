package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/gpf-go/gpf/internal/caller"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/testutil/reclaim"
	"github.com/gpf-go/gpf/internal/vcf"
	"github.com/gpf-go/gpf/internal/workload"
)

func TestPartitionInfoBaseMapping(t *testing.T) {
	// Mirrors Fig 8: partition length 1,000,000; contigs of 250, 244, 199
	// partitions...
	lens := []int{250_000_000, 243_200_000, 198_300_000}
	pi, err := NewPartitionInfo(lens, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if pi.CountPerContig[0] != 250 || pi.StartID[1] != 250 || pi.StartID[2] != 494 {
		t.Fatalf("structure: counts=%v starts=%v", pi.CountPerContig, pi.StartID)
	}
	// Fig 8's worked example: position (contig index 3 in the paper is our
	// contig 2 here); check the arithmetic start+offset.
	if got := pi.BaseID(2, 12_345_678); got != 494+12 {
		t.Fatalf("BaseID = %d, want %d", got, 494+12)
	}
	if pi.BaseID(-1, 0) != -1 || pi.BaseID(9, 0) != -1 {
		t.Fatal("bad contig should map to -1")
	}
	// Positions beyond the contig clamp into the last partition.
	if got := pi.BaseID(0, 260_000_000); got != 249 {
		t.Fatalf("clamped BaseID = %d", got)
	}
}

func TestPartitionInfoSplit(t *testing.T) {
	// Mirrors Fig 9: partition 705 split into 4.
	lens := []int{250_000_000, 244_000_000, 199_000_000, 192_000_000}
	pi, err := NewPartitionInfo(lens, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	base := pi.BaseID(3, 12_345_678) // contig 3 starts at 693: 693+12 = 705
	if base != 705 {
		t.Fatalf("base = %d, want 705", base)
	}
	if err := pi.Split(705, 4); err != nil {
		t.Fatal(err)
	}
	// After split: split length 250,000; offset 345,678/250,000 = 1.
	finalOfSplit := pi.FinalID(3, 12_345_678)
	startOfSplit := pi.FinalID(3, 12_000_000)
	if finalOfSplit != startOfSplit+1 {
		t.Fatalf("offset in split: start=%d final=%d, want +1", startOfSplit, finalOfSplit)
	}
	// Unsplit partitions before the split keep their renumbered IDs dense.
	if got := pi.FinalID(0, 0); got != 0 {
		t.Fatalf("first partition final ID = %d", got)
	}
	if pi.NumPartitions() != pi.NumBasePartitions()+3 {
		t.Fatalf("total = %d, want base+3", pi.NumPartitions())
	}
	// Split errors.
	if err := pi.Split(-1, 2); err == nil {
		t.Fatal("split of negative partition should error")
	}
	if err := pi.Split(0, 0); err == nil {
		t.Fatal("split count 0 should error")
	}
}

func TestPartitionInfoIntervalRoundTrip(t *testing.T) {
	lens := []int{2_500_000, 1_700_000}
	pi, err := NewPartitionInfo(lens, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := pi.Split(1, 3); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < pi.NumPartitions(); id++ {
		iv, ok := pi.Interval(id)
		if !ok {
			t.Fatalf("Interval(%d) failed", id)
		}
		if iv.Len() == 0 {
			continue // zero-length tail partitions are legal
		}
		// Round trip: every position in the interval maps back to id.
		for _, pos := range []int{iv.Start, (iv.Start + iv.End) / 2, iv.End - 1} {
			if got := pi.FinalID(iv.Contig, pos); got != id {
				t.Fatalf("FinalID(%d,%d) = %d, want %d (iv=%+v)", iv.Contig, pos, got, id, iv)
			}
		}
	}
	if _, ok := pi.Interval(-1); ok {
		t.Fatal("negative interval should fail")
	}
	if _, ok := pi.Interval(pi.NumPartitions()); ok {
		t.Fatal("out-of-range interval should fail")
	}
}

// Property: FinalID is monotone in position within a contig and total
// coverage is complete (every position maps to a valid partition).
func TestPartitionInfoMonotoneProperty(t *testing.T) {
	f := func(seed int64, splitSel uint8) bool {
		lens := []int{1_300_000 + int(uint16(seed)), 900_000}
		pi, err := NewPartitionInfo(lens, 500_000)
		if err != nil {
			return false
		}
		split := int(splitSel) % pi.NumBasePartitions()
		if err := pi.Split(split, 2+int(splitSel%3)); err != nil {
			return false
		}
		for c, l := range lens {
			prev := -1
			for pos := 0; pos < l; pos += 50_000 {
				id := pi.FinalID(c, pos)
				if id < 0 || id >= pi.NumPartitions() {
					return false
				}
				if id < prev {
					return false
				}
				prev = id
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPartitionInfoErrors(t *testing.T) {
	if _, err := NewPartitionInfo([]int{100}, 0); err == nil {
		t.Fatal("zero partition length should error")
	}
	if _, err := NewPartitionInfo([]int{-5}, 100); err == nil {
		t.Fatal("negative contig length should error")
	}
}

func TestResourceStateMachine(t *testing.T) {
	b := UndefinedSAM("s", nil)
	if b.State() != Undefined {
		t.Fatal("new bundle should be undefined")
	}
	b.setDefined()
	if b.State() != Defined {
		t.Fatal("setDefined failed")
	}
	f := DefinedFASTQPair("f", nil)
	if f.State() != Defined {
		t.Fatal("DefinedFASTQPair should be defined")
	}
}

// stubProcess is a minimal Process for scheduler tests.
type stubProcess struct {
	baseProcess
	ran  *[]string
	fail error
}

func newStub(name string, ran *[]string, ins []Resource, outs []Resource) *stubProcess {
	return &stubProcess{baseProcess: baseProcess{name: name, inputs: ins, outputs: outs}, ran: ran}
}

func (s *stubProcess) Run(rt *Runtime) error {
	if s.fail != nil {
		return s.fail
	}
	*s.ran = append(*s.ran, s.name)
	return nil
}

func testRuntime(t *testing.T, workers int) *Runtime {
	t.Helper()
	ref := genome.Synthesize(genome.DefaultSynthConfig(900, 30000, 1))
	rt := NewRuntime(engine.NewContext(workers), ref)
	rt.PartitionLen = 5000
	return rt
}

func TestPipelineTopologicalExecution(t *testing.T) {
	rt := testRuntime(t, 1)
	var ran []string
	a := UndefinedSAM("a", nil)
	b := UndefinedSAM("b", nil)
	c := UndefinedSAM("c", nil)
	src := DefinedFASTQPair("src", nil)
	// Add in reverse order: scheduler must still respect dependencies.
	p := NewPipeline("test", rt)
	p.AddProcess(newStub("third", &ran, []Resource{b}, []Resource{c}))
	p.AddProcess(newStub("second", &ran, []Resource{a}, []Resource{b}))
	p.AddProcess(newStub("first", &ran, []Resource{src}, []Resource{a}))
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 3 || ran[0] != "first" || ran[1] != "second" || ran[2] != "third" {
		t.Fatalf("execution order: %v", ran)
	}
}

func TestPipelineCircularDependency(t *testing.T) {
	rt := testRuntime(t, 1)
	var ran []string
	a := UndefinedSAM("a", nil)
	b := UndefinedSAM("b", nil)
	p := NewPipeline("cycle", rt)
	p.AddProcess(newStub("x", &ran, []Resource{a}, []Resource{b}))
	p.AddProcess(newStub("y", &ran, []Resource{b}, []Resource{a}))
	err := p.Run()
	if err == nil {
		t.Fatal("circular dependency must error")
	}
}

func TestPipelineDisconnectedGraph(t *testing.T) {
	// The DAG may not be connected (§4.3); both components must run.
	rt := testRuntime(t, 1)
	var ran []string
	s1 := DefinedFASTQPair("s1", nil)
	s2 := DefinedFASTQPair("s2", nil)
	o1 := UndefinedSAM("o1", nil)
	o2 := UndefinedSAM("o2", nil)
	p := NewPipeline("disconnected", rt)
	p.AddProcess(newStub("c1", &ran, []Resource{s1}, []Resource{o1}))
	p.AddProcess(newStub("c2", &ran, []Resource{s2}, []Resource{o2}))
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 2 {
		t.Fatalf("ran %v", ran)
	}
}

// countProcess counts its input's mapped records: one lazy narrow op over the
// input, then an action.
type countProcess struct {
	baseProcess
	in *SAMBundle
}

func newCountProcess(name string, in *SAMBundle) *countProcess {
	return &countProcess{baseProcess: baseProcess{name: name, inputs: []Resource{in}}, in: in}
}

func (c *countProcess) Run(rt *Runtime) error {
	mapped, err := engine.Filter(c.name+"/mapped", c.in.Data, func(r sam.Record) bool { return !r.Unmapped() })
	if err != nil {
		return err
	}
	_, err = engine.Count(c.name+"/count", mapped)
	return err
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

// TestPipelinePersistsSharedResource: a lazy resource two Processes read is
// forced by the Pipeline before the first of them runs, so its op runs once
// per record, not once per reader; a resource one Process reads stays lazy
// and fuses into that reader's stage.
func TestPipelinePersistsSharedResource(t *testing.T) {
	for _, readers := range []int{1, 2} {
		rt := testRuntime(t, 2)
		var runs atomic.Int64
		data, err := engine.Map("r/op", engine.Parallelize(rt.Engine, make([]sam.Record, 200), 4), nil,
			func(r sam.Record) sam.Record { runs.Add(1); return r })
		if err != nil {
			t.Fatal(err)
		}
		r := DefinedSAM("r", nil, data)
		p := NewPipeline("shared", rt)
		for i := 1; i <= readers; i++ {
			p.AddProcess(newCountProcess(fmt.Sprintf("P%d", i), r))
		}
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		if n := runs.Load(); n != 200 {
			t.Errorf("%d reader(s): r's op ran %d times on 200 records", readers, n)
		}
		var rows []string
		for _, s := range rt.Engine.Metrics().Stages {
			if s.Kind == engine.StageNarrow {
				rows = append(rows, s.Name)
			}
		}
		want := []string{"r/op+P1/mapped"}
		if readers == 2 {
			want = []string{"r/op", "P1/mapped", "P2/mapped"}
		}
		if !slices.Equal(rows, want) {
			t.Errorf("%d reader(s): narrow rows %v, want %v", readers, rows, want)
		}
	}
}

// mapProcess defines its output as fn over its input's flat records: one lazy
// narrow op.
type mapProcess struct {
	baseProcess
	in, out *SAMBundle
	fn      func(sam.Record) sam.Record
}

func newMapProcess(name string, in, out *SAMBundle, fn func(sam.Record) sam.Record) *mapProcess {
	return &mapProcess{
		baseProcess: baseProcess{name: name, inputs: []Resource{in}, outputs: []Resource{out}},
		in:          in, out: out, fn: fn,
	}
}

func (m *mapProcess) Run(rt *Runtime) error {
	flat, err := m.in.EnsureFlat(rt)
	if err != nil {
		return err
	}
	m.out.Data, err = engine.Map(m.name+"/map", flat, nil, m.fn)
	return err
}

// TestPipelineReleasesSharedResource: a resource a Process of the pipeline
// defined and two Processes read is released after the second of them runs.
// A lazy terminal downstream of it still holds its rows through its own plan
// and collects them unchanged; then nothing holds them. Every later read
// through core errors, naming the resource and its last reader. A resource
// with one reader, a caller-defined one and a terminal stay Defined.
func TestPipelineReleasesSharedResource(t *testing.T) {
	const n = 200
	source := func(rt *Runtime) *SAMBundle {
		recs := make([]sam.Record, n)
		for i := range recs {
			recs[i].Pos = int32(i)
		}
		return DefinedSAM("src", nil, engine.Parallelize(rt.Engine, recs, 4))
	}
	countOf := func(t *testing.T, b *SAMBundle) {
		t.Helper()
		if b.State() != Defined {
			t.Fatalf("%s is %v, want Defined", b.ResourceName(), b.State())
		}
		if got, err := engine.Count(b.ResourceName()+"/count", b.Data); err != nil || got != n {
			t.Fatalf("%s counts %d, %v; want %d", b.ResourceName(), got, err, n)
		}
	}

	rt := testRuntime(t, 2)
	src := source(rt)
	seqs := new(reclaim.Counter)
	shared, terminal := UndefinedSAM("shared", nil), UndefinedSAM("terminal", nil)
	p := NewPipeline("release", rt)
	p.AddProcess(newMapProcess("Fill", src, shared, func(r sam.Record) sam.Record {
		r.Seq = make([]byte, 64)
		seqs.Track(&r.Seq[0])
		return r
	}))
	p.AddProcess(newCountProcess("Count", shared))
	p.AddProcess(newMapProcess("Copy", shared, terminal, func(r sam.Record) sam.Record {
		r.Seq = slices.Clone(r.Seq)
		return r
	}))
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if shared.State() != Released || shared.Data != nil {
		t.Fatalf("shared: state %v, holds data %v; want Released, no data",
			shared.State(), shared.Data != nil)
	}
	if terminal.State() != Defined || src.State() != Defined {
		t.Fatalf("terminal %v, caller-defined src %v; want both Defined", terminal.State(), src.State())
	}
	runtime.GC()
	runtime.GC()
	if k := seqs.Freed(); k != 0 {
		t.Fatalf("%d shared rows reclaimed while the lazy terminal still reads them", k)
	}
	got, err := engine.Collect("terminal", terminal.Data)
	if err != nil || len(got) != n {
		t.Fatalf("terminal collected %d records, %v; want %d", len(got), err, n)
	}
	for i, r := range got {
		if int(r.Pos) != i || len(r.Seq) != 64 {
			t.Fatalf("terminal record %d: pos %d, %d seq bytes", i, r.Pos, len(r.Seq))
		}
	}
	if !seqs.Reclaimed(n) {
		t.Fatalf("released resource still reachable: %d of %d rows reclaimed", seqs.Freed(), n)
	}

	// Every read of the released resource errors, naming it and Copy.
	_, err = shared.EnsureFlat(rt)
	if err == nil || !strings.Contains(err.Error(), `"shared"`) || !strings.Contains(err.Error(), "Copy") {
		t.Fatalf("EnsureFlat on a released resource = %v, want an error naming it and Copy", err)
	}
	want := err.Error()
	info := definedInfo(t, rt, "info", rt.PartitionLen)
	again := NewPipeline("again", rt)
	again.AddProcess(newCountProcess("Third", shared))
	for what, read := range map[string]func() error{
		"persist":     shared.persist,
		"a later Run": again.Run,
		"partition Process": func() error {
			return NewIndelRealignProcess("Realign", info, shared, UndefinedSAM("out", nil)).Run(rt)
		},
	} {
		if err := read(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s of a released resource = %v, want %q", what, err, want)
		}
	}
	vcfs := UndefinedVCF("calls", nil)
	vcfs.Data = engine.Parallelize(rt.Engine, []vcf.Record{{Chrom: "c"}}, 1)
	vcfs.release("Caller")
	if _, err := CollectVCF(rt, vcfs); err == nil || !strings.Contains(err.Error(), "Caller") {
		t.Errorf("CollectVCF of a released bundle = %v, want an error naming Caller", err)
	}

	t.Run("one reader", func(t *testing.T) {
		rt := testRuntime(t, 2)
		one := UndefinedSAM("one", nil)
		p := NewPipeline("one", rt)
		p.AddProcess(newMapProcess("Fill", source(rt), one, func(r sam.Record) sam.Record { return r }))
		p.AddProcess(newCountProcess("Count", one))
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		countOf(t, one)
	})
	t.Run("caller-defined", func(t *testing.T) {
		rt := testRuntime(t, 2)
		src := source(rt)
		p := NewPipeline("caller", rt)
		p.AddProcess(newCountProcess("A", src))
		p.AddProcess(newCountProcess("B", src))
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		countOf(t, src)
	})
}

// TestPipelineRunsOnce: a second Run errors and runs nothing; it would
// otherwise run every Process again over inputs the first Run released.
func TestPipelineRunsOnce(t *testing.T) {
	rt := testRuntime(t, 1)
	var ran []string
	p := NewPipeline("once", rt)
	p.AddProcess(newStub("only", &ran, []Resource{DefinedFASTQPair("src", nil)}, []Resource{UndefinedSAM("out", nil)}))
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	err := p.Run()
	if err == nil || err.Error() != `core: pipeline "once" already ran` {
		t.Fatalf("second Run = %v", err)
	}
	if len(ran) != 1 || len(p.ExecutionOrder()) != 1 {
		t.Fatalf("after two Runs: ran %v, execution order %v", ran, p.ExecutionOrder())
	}
}

func simPairs(t *testing.T, rt *Runtime, coverage float64) []fastq.Pair {
	t.Helper()
	donor := genome.Mutate(rt.Ref, genome.DefaultMutateConfig(901))
	return fastq.Simulate(donor, fastq.DefaultSimConfig(902, coverage))
}

func TestWGSPipelineEndToEnd(t *testing.T) {
	rt := testRuntime(t, 2)
	pairs := simPairs(t, rt, 12)
	ds := PairsToRDD(rt, pairs, 4)
	wgs := BuildWGSPipeline(rt, ds, false)
	if err := wgs.Pipeline.Run(); err != nil {
		t.Fatal(err)
	}
	calls, err := CollectVCF(rt, wgs.VCF)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 {
		t.Fatal("pipeline called no variants")
	}
	// Compare against the donor truth set.
	donor := genome.Mutate(rt.Ref, genome.DefaultMutateConfig(901))
	var truth []vcf.Record
	for _, v := range donor.Truth.Variants {
		truth = append(truth, vcf.Record{
			Chrom: rt.Ref.Contigs[v.Contig].Name, Pos: v.Pos,
			Ref: string(v.Ref), Alt: string(v.Alt),
		})
	}
	stats := vcf.Compare(calls, truth, 2)
	if stats.Recall() < 0.4 {
		t.Fatalf("WGS recall %.2f (TP=%d FN=%d)", stats.Recall(), stats.TruePositive, stats.FalseNegative)
	}
	// Execution order respects the pipeline structure.
	order := wgs.Pipeline.ExecutionOrder()
	if len(order) != 6 || order[0] != "BwaMapping" || order[5] != "HaplotypeCaller" {
		t.Fatalf("execution order: %v", order)
	}
}

func TestRedundancyEliminationReducesStages(t *testing.T) {
	// The Table 4 claim: the optimized pipeline runs fewer stages and moves
	// less shuffle data than the unoptimized one.
	run := func(optimize bool) engine.Metrics {
		rt := testRuntime(t, 2)
		pairs := simPairs(t, rt, 8)
		rt.Optimize = optimize
		ds := PairsToRDD(rt, pairs, 4)
		wgs := BuildWGSPipeline(rt, ds, false)
		if err := wgs.Pipeline.Run(); err != nil {
			t.Fatal(err)
		}
		if _, err := CollectVCF(rt, wgs.VCF); err != nil {
			t.Fatal(err)
		}
		return rt.Engine.Metrics()
	}
	opt := run(true)
	unopt := run(false)
	if opt.NumStages() >= unopt.NumStages() {
		t.Fatalf("optimized stages %d should be < unoptimized %d", opt.NumStages(), unopt.NumStages())
	}
	if opt.TotalShuffleBytes() >= unopt.TotalShuffleBytes() {
		t.Fatalf("optimized shuffle %d should be < unoptimized %d",
			opt.TotalShuffleBytes(), unopt.TotalShuffleBytes())
	}
}

func TestOptimizationPreservesResults(t *testing.T) {
	run := func(optimize bool) []vcf.Record {
		rt := testRuntime(t, 2)
		pairs := simPairs(t, rt, 10)
		rt.Optimize = optimize
		ds := PairsToRDD(rt, pairs, 4)
		wgs := BuildWGSPipeline(rt, ds, false)
		if err := wgs.Pipeline.Run(); err != nil {
			t.Fatal(err)
		}
		calls, err := CollectVCF(rt, wgs.VCF)
		if err != nil {
			t.Fatal(err)
		}
		return calls
	}
	opt := run(true)
	unopt := run(false)
	if len(opt) != len(unopt) {
		t.Fatalf("call counts differ: optimized %d vs unoptimized %d", len(opt), len(unopt))
	}
	for i := range opt {
		a, b := opt[i], unopt[i]
		if a.Chrom != b.Chrom || a.Pos != b.Pos || a.Ref != b.Ref || a.Alt != b.Alt || a.GT != b.GT {
			t.Fatalf("call %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// TestVCFIndependentOfShuffleBuckets: the VCF does not depend on
// NumPartitions, which NewRuntime sets to 4 × workers. MarkDuplicate's group
// shuffle has that many buckets, so its map order, and with it the order a
// partition holds its reads in, moves with it. The dataset's two hotspots,
// sampled 40 times as densely, put more than MaxReadsPerRegion reads in some
// active regions, whose stride sample and likelihood sums must not follow
// that order.
func TestVCFIndependentOfShuffleBuckets(t *testing.T) {
	d := workload.Make(workload.DefaultProfile(workload.WGS, 30000), 42)
	var first string
	for _, n := range []int{4, 8, 16} {
		rt := NewRuntime(engine.NewContext(2), d.Ref)
		rt.PartitionLen = 3000
		rt.NumPartitions = n
		rt.Known = d.Known
		wgs := BuildWGSPipeline(rt, PairsToRDD(rt, d.Pairs, 4), false)
		if err := wgs.Pipeline.Run(); err != nil {
			t.Fatal(err)
		}
		calls, err := CollectVCF(rt, wgs.VCF)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := vcf.Write(h, wgs.VCF.Header, calls); err != nil {
			t.Fatal(err)
		}
		got := hex.EncodeToString(h.Sum(nil))
		if first == "" {
			first = got
		} else if got != first {
			t.Fatalf("NumPartitions %d: %d calls hash to %s, NumPartitions 4 to %s", n, len(calls), got, first)
		}
	}
}

// opRows counts, for every narrow op name, the narrow stage rows that ran it.
func opRows(m engine.Metrics) map[string]int {
	rows := map[string]int{}
	for _, s := range m.Stages {
		if s.Kind == engine.StageNarrow {
			for _, op := range strings.Split(s.Name, "+") {
				rows[op]++
			}
		}
	}
	return rows
}

// TestEachOpRunsOnce: whatever the Fig 7 decision, no narrow op of the WGS
// pipeline is computed twice.
func TestEachOpRunsOnce(t *testing.T) {
	for _, optimize := range []bool{true, false} {
		for _, serialized := range []bool{false, true} {
			t.Run(fmt.Sprintf("optimize=%v/serialized=%v", optimize, serialized), func(t *testing.T) {
				rt := testRuntime(t, 2)
				rt.Engine.StoreSerialized = serialized
				rt.Optimize = optimize
				wgs := BuildWGSPipeline(rt, PairsToRDD(rt, simPairs(t, rt, 6), 4), false)
				if err := wgs.Pipeline.Run(); err != nil {
					t.Fatal(err)
				}
				if _, err := CollectVCF(rt, wgs.VCF); err != nil {
					t.Fatal(err)
				}
				for op, n := range opRows(rt.Engine.Metrics()) {
					if n != 1 {
						t.Errorf("op %s ran in %d stages", op, n)
					}
				}
			})
		}
	}
}

// definedInfo returns a filled PartitionInfo resource over rt's reference.
func definedInfo(t *testing.T, rt *Runtime, name string, partLen int) *PartitionInfoBundle {
	t.Helper()
	pi, err := NewPartitionInfo(rt.Ref.Lengths(), partLen)
	if err != nil {
		t.Fatal(err)
	}
	b := UndefinedPartitionInfo(name)
	b.Info = pi
	b.setDefined()
	return b
}

// TestBundleReuseRule: a partition Process of an optimized pipeline reads its
// input as it is exactly when the input is already partitioned by its own
// PartitionInfo, and every reader of one partitioned output shares it.
func TestBundleReuseRule(t *testing.T) {
	var recs []sam.Record
	{
		rt := testRuntime(t, 2)
		aligned := UndefinedSAM("aligned", nil)
		p := NewPipeline("align", rt)
		p.AddProcess(NewBwaMemProcess("bwa", DefinedFASTQPair("f", PairsToRDD(rt, simPairs(t, rt, 6), 4)), aligned))
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		var err error
		if recs, err = engine.Collect("aligned", aligned.Data); err != nil {
			t.Fatal(err)
		}
	}
	setup := func() (*Runtime, *SAMBundle, *Pipeline) {
		rt := testRuntime(t, 2)
		in := DefinedSAM("aligned", unsortedHeader(rt), engine.Parallelize(rt.Engine, recs, 4))
		return rt, in, NewPipeline("reuse", rt)
	}
	// partitioned returns the reduce row of the SAM shuffle process name ran
	// to partition its input, nil when it read the input as it is.
	partitioned := func(rt *Runtime, name string) *engine.StageMetrics {
		m := rt.Engine.Metrics()
		for i := range m.Stages {
			if m.Stages[i].Name == name+"/sam-partition/reduce" {
				return &m.Stages[i]
			}
		}
		return nil
	}

	t.Run("same info", func(t *testing.T) {
		rt, aligned, p := setup()
		info := definedInfo(t, rt, "info", rt.PartitionLen)
		realigned, recaled := UndefinedSAM("realigned", nil), UndefinedSAM("recaled", nil)
		p.AddProcess(NewIndelRealignProcess("IndelRealign", info, aligned, realigned))
		p.AddProcess(NewBaseRecalibrationProcess("BaseRecalibration", info, realigned, recaled))
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		if partitioned(rt, "IndelRealign") == nil || partitioned(rt, "BaseRecalibration") != nil {
			t.Fatal("BaseRecalibration should read IndelRealign's output as it is")
		}
		if realigned.info != info.Info || recaled.info != info.Info {
			t.Fatal("outputs not published as partitioned by the process's info")
		}
	})

	t.Run("other info", func(t *testing.T) {
		rt, aligned, p := setup()
		infoA := definedInfo(t, rt, "A", rt.PartitionLen)
		infoB := definedInfo(t, rt, "B", 7000)
		realigned, recaled := UndefinedSAM("realigned", nil), UndefinedSAM("recaled", nil)
		p.AddProcess(NewIndelRealignProcess("IndelRealign", infoA, aligned, realigned))
		p.AddProcess(NewBaseRecalibrationProcess("BaseRecalibration", infoB, realigned, recaled))
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		row := partitioned(rt, "BaseRecalibration")
		if row == nil {
			t.Fatal("records partitioned by A were read as partitioned by B")
		}
		if len(row.Tasks) != infoB.Info.NumPartitions() || recaled.info != infoB.Info {
			t.Fatalf("rebuilt into %d partitions, want B's %d", len(row.Tasks), infoB.Info.NumPartitions())
		}
	})

	t.Run("two readers", func(t *testing.T) {
		rt, aligned, p := setup()
		info := definedInfo(t, rt, "info", rt.PartitionLen)
		realigned := UndefinedSAM("realigned", nil)
		p.AddProcess(NewIndelRealignProcess("IndelRealign", info, aligned, realigned))
		var vcfs []*VCFBundle
		for _, name := range []string{"CallerA", "CallerB"} {
			out := UndefinedVCF(name+"VCF", nil)
			p.AddProcess(NewHaplotypeCallerProcess(name, info, realigned, out, false))
			vcfs = append(vcfs, out)
		}
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		for _, v := range vcfs {
			if _, err := CollectVCF(rt, v); err != nil {
				t.Fatal(err)
			}
		}
		if partitioned(rt, "CallerA") != nil || partitioned(rt, "CallerB") != nil {
			t.Fatal("a reader re-partitioned the shared partitioned output")
		}
		if n := opRows(rt.Engine.Metrics())["IndelRealign/realign"]; n != 1 {
			t.Fatalf("shared realign ran in %d stages, want 1", n)
		}
	})
}

// TestRepartitionerSplitsHotspots: with dynamic repartitioning the census
// splits the hotspot's partition; without it the census still runs and every
// partition keeps its base interval.
func TestRepartitionerSplitsHotspots(t *testing.T) {
	for _, dynamic := range []bool{true, false} {
		t.Run(fmt.Sprintf("dynamic=%v", dynamic), func(t *testing.T) {
			rt := testRuntime(t, 2)
			rt.DynamicRepartition = dynamic
			donor := genome.Mutate(rt.Ref, genome.DefaultMutateConfig(901))
			cfg := fastq.DefaultSimConfig(903, 6)
			cfg.Hotspots = []genome.Interval{{Contig: 0, Start: 2000, End: 4000}}
			cfg.HotspotFactor = 30
			pairs := fastq.Simulate(donor, cfg)
			ds := PairsToRDD(rt, pairs, 4)

			// Align, then repartition.
			fastqBundle := DefinedFASTQPair("f", ds)
			aligned := UndefinedSAM("aligned", nil)
			info := UndefinedPartitionInfo("pi")
			p := NewPipeline("repart", rt)
			p.AddProcess(NewBwaMemProcess("bwa", fastqBundle, aligned))
			p.AddProcess(NewReadRepartitionerProcess("repart", []*SAMBundle{aligned}, info))
			if err := p.Run(); err != nil {
				t.Fatal(err)
			}
			pi := info.Info
			if pi == nil {
				t.Fatal("no partition info produced")
			}
			census := false
			for _, s := range rt.Engine.Metrics().Stages {
				census = census || s.Name == "repart/census"
			}
			if !census {
				t.Fatal("no census stage recorded")
			}
			if !dynamic {
				if pi.NumPartitions() != pi.NumBasePartitions() {
					t.Fatalf("static run split partitions: %d final vs %d base",
						pi.NumPartitions(), pi.NumBasePartitions())
				}
				return
			}
			if pi.NumPartitions() <= pi.NumBasePartitions() {
				t.Fatalf("hotspot did not trigger splits: %d final vs %d base",
					pi.NumPartitions(), pi.NumBasePartitions())
			}
			// The hotspot's partition must be among the split ones.
			hotBase := pi.BaseID(0, 3000)
			hotIv, _ := pi.Interval(pi.FinalID(0, 3000))
			if hotIv.Len() >= rt.PartitionLen {
				t.Fatalf("hotspot partition %d not split: interval %+v", hotBase, hotIv)
			}
		})
	}
}

// TestPartitionSAM: one partitioning is the SAM shuffle and nothing else,
// into info's partitions; partition p holds exactly the reads FinalID routes
// to p, and every read is present.
func TestPartitionSAM(t *testing.T) {
	rt := testRuntime(t, 2)
	pairs := simPairs(t, rt, 6)
	ds := PairsToRDD(rt, pairs, 2)
	fastqBundle := DefinedFASTQPair("f", ds)
	aligned := UndefinedSAM("aligned", nil)
	p := NewPipeline("b", rt)
	p.AddProcess(NewBwaMemProcess("bwa", fastqBundle, aligned))
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if err := aligned.Data.Force(); err != nil {
		t.Fatal(err)
	}
	pi, err := NewPartitionInfo(rt.Ref.Lengths(), rt.PartitionLen)
	if err != nil {
		t.Fatal(err)
	}
	before := len(rt.Engine.Metrics().Stages)
	parted, err := partitionSAM(rt, "test", aligned.Data, pi)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, s := range rt.Engine.Metrics().Stages[before:] {
		rows = append(rows, s.Name)
	}
	if want := []string{"test/sam-partition/map", "test/sam-partition/reduce"}; !reflect.DeepEqual(rows, want) {
		t.Fatalf("stages recorded by one partitioning = %v, want %v", rows, want)
	}
	if n := parted.NumPartitions(); n != pi.NumPartitions() {
		t.Fatalf("partitions = %d, want %d", n, pi.NumPartitions())
	}
	// Tag every read with the partition holding it.
	type placed struct {
		part int
		rec  sam.Record
	}
	tagged, err := engine.MapPartitions("tag", parted, nil,
		func(p int, recs []sam.Record) ([]placed, error) {
			out := make([]placed, len(recs))
			for i := range recs {
				out[i] = placed{p, recs[i]}
			}
			return out, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	all, err := engine.Collect("collect", tagged)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range all {
		r := &x.rec
		if r.RefID < 0 {
			continue
		}
		if got := pi.FinalID(int(r.RefID), int(r.Pos)); got != x.part {
			t.Fatalf("read at %d:%d in partition %d, want %d", r.RefID, r.Pos, x.part, got)
		}
	}
	if len(all) != 2*len(pairs) {
		t.Fatalf("partitions hold %d reads, want %d", len(all), 2*len(pairs))
	}
}

// TestRecalKnownSitesByPartition: BQSR's partition p masks exactly the known
// variants whose start FinalID routes to p — what a shuffle of rt.Known by
// that key would deliver — including across a split and for a deletion whose
// span runs into the next partition; a variant on a contig the reference
// lacks lands in partition 0 and masks nothing.
func TestRecalKnownSitesByPartition(t *testing.T) {
	rt := testRuntime(t, 2)
	pi, err := NewPartitionInfo(rt.Ref.Lengths(), rt.PartitionLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := pi.Split(1, 2); err != nil { // [5000, 7500) and [7500, 10000)
		t.Fatal(err)
	}
	chrom := rt.Ref.Contigs[0].Name
	unknown := vcf.Record{Chrom: "chrUn", Pos: 7500, Ref: "AAA", Alt: "A"}
	rt.Known = []vcf.Record{
		{Chrom: chrom, Pos: 100, Ref: "A", Alt: "C"},
		{Chrom: chrom, Pos: 7498, Ref: "ACGTA", Alt: "A"}, // deletion over the split
		unknown,
		{Chrom: chrom, Pos: 7600, Ref: "G", Alt: "T"},
		{Chrom: chrom, Pos: 12000, Ref: "C", Alt: "G"},
	}
	if knownSitesFunc(rt, []vcf.Record{unknown}) != nil {
		t.Fatal("a variant on an unknown contig adds a site")
	}
	groups := knownByPartition(rt, pi)
	if len(groups) != pi.NumPartitions() {
		t.Fatalf("groups = %d, want %d", len(groups), pi.NumPartitions())
	}
	if !slices.ContainsFunc(groups[0], func(v vcf.Record) bool { return v.Chrom == unknown.Chrom }) {
		t.Fatal("the unknown-contig variant is not in partition 0")
	}
	contigLen := rt.Ref.Contigs[0].Len()
	for p := range groups {
		var want []vcf.Record
		for _, v := range rt.Known {
			if v.Chrom == chrom && pi.FinalID(0, v.Pos) == p {
				want = append(want, v)
			}
		}
		got, wantMask := knownSitesFunc(rt, groups[p]), knownSitesFunc(rt, want)
		if (got == nil) != (wantMask == nil) {
			t.Fatalf("partition %d: mask nil = %v, want %v", p, got == nil, wantMask == nil)
		}
		if got == nil {
			continue
		}
		for pos := 0; pos < contigLen; pos++ {
			if got(0, pos) != wantMask(0, pos) {
				t.Fatalf("partition %d: mask(%d) = %v, want %v", p, pos, got(0, pos), wantMask(0, pos))
			}
		}
	}
	// The deletion starting in partition 1 masks its whole span there; the
	// part of the span inside partition 2 is not masked in partition 2.
	if !knownSitesFunc(rt, groups[1])(0, 7501) {
		t.Fatal("partition 1 does not mask the deletion's span past its end")
	}
	if knownSitesFunc(rt, groups[2])(0, 7501) {
		t.Fatal("partition 2 masks a deletion that starts in partition 1")
	}
}

func TestEnsureFlatErrors(t *testing.T) {
	rt := testRuntime(t, 1)
	b := UndefinedSAM("empty", nil)
	if _, err := b.EnsureFlat(rt); err == nil {
		t.Fatal("empty bundle should error")
	}
}

func TestMarkDuplicateProcessColocatesDuplicates(t *testing.T) {
	rt := testRuntime(t, 2)
	donor := genome.Mutate(rt.Ref, genome.DefaultMutateConfig(901))
	cfg := fastq.DefaultSimConfig(905, 8)
	cfg.DuplicateRate = 0.4
	pairs := fastq.Simulate(donor, cfg)
	ds := PairsToRDD(rt, pairs, 4)
	fastqBundle := DefinedFASTQPair("f", ds)
	aligned := UndefinedSAM("aligned", nil)
	deduped := UndefinedSAM("deduped", nil)
	p := NewPipeline("md", rt)
	p.AddProcess(NewBwaMemProcess("bwa", fastqBundle, aligned))
	p.AddProcess(NewMarkDuplicateProcess("markdup", aligned, deduped))
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	recs, err := engine.Collect("c", deduped.Data)
	if err != nil {
		t.Fatal(err)
	}
	marked := 0
	for i := range recs {
		if recs[i].Duplicate() {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("no duplicates marked despite 40% duplication rate")
	}
}

// TestCleanerHeadersStateTheirOrder: each SAM a cleaner chain writes may
// say SO:coordinate only if its records, in the order a collect returns and
// the text writer writes them, are in sam.CoordinateCompare order.
func TestCleanerHeadersStateTheirOrder(t *testing.T) {
	check := func(b *SAMBundle) {
		t.Helper()
		if b.Header == nil {
			t.Fatalf("%s: no header", b.ResourceName())
		}
		if b.Header.Sort != sam.Coordinate {
			return
		}
		flat, err := b.EnsureFlat(nil)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := engine.Collect(b.ResourceName()+"/collect", flat)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(recs); i++ {
			if sam.CoordinateCompare(&recs[i-1], &recs[i]) > 0 {
				t.Fatalf("%s: header says coordinate, but record %d (%s) sorts after record %d (%s)",
					b.ResourceName(), i-1, recs[i-1].Name, i, recs[i].Name)
			}
		}
	}
	// chain runs the cleaner Processes over freshly aligned reads as far as
	// stages names, so the last output is read by no Process and survives
	// the run.
	chain := func(stages int) []*SAMBundle {
		rt := testRuntime(t, 2)
		rt.NumPartitions = 4
		pl := NewPipeline("cleaner", rt)
		aligned := UndefinedSAM("aligned", unsortedHeader(rt))
		pl.AddProcess(NewBwaMemProcess("bwa", DefinedFASTQPair("f", PairsToRDD(rt, simPairs(t, rt, 8), 4)), aligned))
		deduped := UndefinedSAM("deduped", nil)
		pl.AddProcess(NewMarkDuplicateProcess("markdup", aligned, deduped))
		outs := []*SAMBundle{deduped}
		if stages > 1 {
			info := UndefinedPartitionInfo("info")
			pl.AddProcess(NewReadRepartitionerProcess("repartition", []*SAMBundle{deduped}, info))
			realigned := UndefinedSAM("realigned", nil)
			pl.AddProcess(NewIndelRealignProcess("realign", info, deduped, realigned))
			recaled := UndefinedSAM("recaled", nil)
			pl.AddProcess(NewBaseRecalibrationProcess("bqsr", info, realigned, recaled))
			outs = []*SAMBundle{realigned, recaled}
		}
		if err := pl.Run(); err != nil {
			t.Fatal(err)
		}
		return outs
	}
	for _, b := range append(chain(1), chain(3)...) {
		check(b)
	}
}

func TestWGSPipelineGVCFMode(t *testing.T) {
	rt := testRuntime(t, 2)
	pairs := simPairs(t, rt, 10)
	ds := PairsToRDD(rt, pairs, 4)
	wgs := BuildWGSPipeline(rt, ds, true) // gVCF on
	if err := wgs.Pipeline.Run(); err != nil {
		t.Fatal(err)
	}
	records, err := CollectVCF(rt, wgs.VCF)
	if err != nil {
		t.Fatal(err)
	}
	blocks, variants := 0, 0
	for i := range records {
		if records[i].Alt == caller.NonRefAlt {
			blocks++
			if end, err := strconv.Atoi(records[i].Info["END"]); err != nil || end <= records[i].Pos {
				t.Fatalf("block END %d not past start %d", end, records[i].Pos)
			}
		} else {
			variants++
		}
	}
	if blocks == 0 {
		t.Fatal("gVCF mode emitted no reference blocks")
	}
	if variants == 0 {
		t.Fatal("gVCF mode lost the variant calls")
	}
	// Records sorted by coordinate per contig.
	for i := 1; i < len(records); i++ {
		a, b := records[i-1], records[i]
		if a.Chrom == b.Chrom && a.Pos > b.Pos {
			t.Fatalf("gVCF stream out of order at %d", i)
		}
	}
}

func TestCodecTierShuffleBytes(t *testing.T) {
	// The engine's shuffle must move fewer bytes with the genomic codec than
	// with the generic tier — the mechanism behind Table 3 and Fig 11.
	run := func(tier CodecTier) int64 {
		rt := testRuntime(t, 2)
		rt.Codec = tier
		pairs := simPairs(t, rt, 6)
		ds := PairsToRDD(rt, pairs, 4)
		fq := DefinedFASTQPair("f", ds)
		aligned := UndefinedSAM("aligned", nil)
		deduped := UndefinedSAM("deduped", nil)
		p := NewPipeline("codec", rt)
		p.AddProcess(NewBwaMemProcess("bwa", fq, aligned))
		p.AddProcess(NewMarkDuplicateProcess("markdup", aligned, deduped))
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		// The markdup shuffle ran inside p.Run; the lazy mark step over its
		// output moves no bytes.
		return rt.Engine.Metrics().TotalShuffleBytes()
	}
	gpfBytes := run(TierGPF)
	fieldBytes := run(TierField)
	gobBytes := run(TierGob)
	if !(gpfBytes < fieldBytes && fieldBytes < gobBytes) {
		t.Fatalf("shuffle bytes gpf=%d field=%d gob=%d; want strictly increasing",
			gpfBytes, fieldBytes, gobBytes)
	}
}

func TestPipelineWithSerializedStorage(t *testing.T) {
	// MEMORY_ONLY_SER mode (§4.2): partitions held as serialized blocks.
	rt := testRuntime(t, 2)
	rt.Engine.StoreSerialized = true
	pairs := simPairs(t, rt, 8)
	ds := PairsToRDD(rt, pairs, 4)
	wgs := BuildWGSPipeline(rt, ds, false)
	if err := wgs.Pipeline.Run(); err != nil {
		t.Fatal(err)
	}
	calls, err := CollectVCF(rt, wgs.VCF)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 {
		t.Fatal("serialized-storage pipeline called nothing")
	}
	// Results identical to the unserialized run.
	rt2 := testRuntime(t, 2)
	ds2 := PairsToRDD(rt2, pairs, 4)
	wgs2 := BuildWGSPipeline(rt2, ds2, false)
	if err := wgs2.Pipeline.Run(); err != nil {
		t.Fatal(err)
	}
	calls2, err := CollectVCF(rt2, wgs2.VCF)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(calls2) {
		t.Fatalf("serialized storage changed results: %d vs %d calls", len(calls), len(calls2))
	}
	// BQSR persists IndelRealign's output, which carries no codec, so the
	// records are held as items (0 serialized bytes) and both BQSR passes
	// read them without decoding. The realign stage ran on its own: that
	// row is the persist.
	ran := false
	for _, s := range rt.Engine.Metrics().Stages {
		ran = ran || s.Name == "IndelRealign/realign"
	}
	if !ran {
		t.Fatal("BQSR did not persist IndelRealign's output")
	}
	if n := wgs.Realigned.Data.MemoryBytes(); n != 0 {
		t.Fatalf("BQSR's persisted records hold %d serialized bytes, want 0", n)
	}
	// A shuffle of codec-carrying records stores the buckets it fetched:
	// its reduce tasks decode nothing.
	reduces := 0
	for _, s := range rt.Engine.Metrics().Stages {
		if !strings.HasSuffix(s.Name, "/reduce") {
			continue
		}
		reduces++
		for _, tk := range s.Tasks {
			if tk.DecodedBytes != 0 {
				t.Fatalf("%s task %d decoded %d bytes, want 0", s.Name, tk.Partition, tk.DecodedBytes)
			}
		}
	}
	if reduces == 0 {
		t.Fatal("no shuffle ran")
	}
}

func TestCensusPlannerPruningWithoutAnnotations(t *testing.T) {
	// The repartitioner census declares ReadsOnly(FieldCoord) and nothing
	// else annotates the read: the columnar census must decode at least 90%
	// fewer stored bytes than the same census over the row-wise field tier.
	run := func(tier CodecTier) (decoded, pruned int64) {
		rt := testRuntime(t, 2)
		rt.Engine.StoreSerialized = true
		rt.Codec = tier
		pairs := simPairs(t, rt, 6)
		ds := PairsToRDD(rt, pairs, 4)
		fq := DefinedFASTQPair("f", ds)
		aligned := UndefinedSAM("aligned", nil)
		p := NewPipeline("census-align", rt)
		p.AddProcess(NewBwaMemProcess("bwa", fq, aligned))
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		// Materialize the aligned records as serialized blocks, then isolate
		// the census read in the metrics.
		if err := aligned.Data.Force(); err != nil {
			t.Fatal(err)
		}
		rt.Engine.ResetMetrics()
		info := UndefinedPartitionInfo("pi")
		p2 := NewPipeline("census", rt)
		p2.AddProcess(NewReadRepartitionerProcess("repart", []*SAMBundle{aligned}, info))
		if err := p2.Run(); err != nil {
			t.Fatal(err)
		}
		if info.Info == nil {
			t.Fatal("no partition info produced")
		}
		m := rt.Engine.Metrics()
		return m.TotalDecodedBytes(), m.TotalPrunedBytes()
	}
	colDec, colPruned := run(TierGPF)
	rowDec, _ := run(TierField)
	if colDec == 0 || rowDec == 0 {
		t.Fatalf("census decoded no bytes: columnar=%d row=%d", colDec, rowDec)
	}
	if colPruned == 0 {
		t.Fatal("the declared census pruned nothing")
	}
	if reduction := 1 - float64(colDec)/float64(rowDec); reduction < 0.90 {
		t.Fatalf("census decode reduction %.1f%% < 90%% (columnar %d bytes, row %d)",
			100*reduction, colDec, rowDec)
	}
}
