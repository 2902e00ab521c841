package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/gpf-go/gpf/internal/core"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/engine/exec/mproc"
	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/vcf"
)

// childSpec is everything the program under test is told: where the generated
// files are and how wide to run. It never sees the seed or the truth set.
type childSpec struct {
	Workload      string `json:"workload"`
	Dir           string `json:"dir"`   // ref.fa, known.vcf, reads_*.fastq, aligned.sam, recal.sam
	Input         string `json:"input"` // the SAM to read, when it is not the workload's default
	Out           string `json:"out"`
	Slots         int    `json:"slots"` // W: engine slots in-process, one-slot ranks for cleaner-mproc
	NumPartitions int    `json:"num_partitions"`
	PartitionLen  int    `json:"partition_len"`
	TraceOut      string `json:"trace_out"` // set for the traced pass: record spans, replay layers, write them here
}

// held keeps every pipeline Resource reachable until the retained heap has
// been measured, plus what the traced pass folds and replays afterwards.
type held struct {
	rt       *core.Runtime
	pipeline *core.Pipeline
	sams     []*core.SAMBundle
	vcfOut   *core.VCFBundle
	metrics  engine.Metrics // snapshot at output-written; the merged ranks for mproc

	pairs    []fastq.Pair // wgs input
	input    []sam.Record // cleaner family and caller input
	calls    int
	mprocRun time.Duration
}

const mprocCleanerJob = "bench-cleaner"

// noopJob measures what mproc.Run costs with nothing to run: spawn, handshake
// and FIN.
const mprocNoopJob = "bench-noop"

// mprocHeld and childTracer carry rank 0's state out of (and the tracer into)
// the registered job, whose signature has no room for them. Worker ranks
// leave both nil.
var (
	mprocHeld   *held
	childTracer *tracer
)

func init() {
	mproc.RegisterJob(mprocCleanerJob, func(ctx *engine.Context, raw []byte) ([]byte, error) {
		var spec childSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return nil, fmt.Errorf("%s: decode spec: %w", mprocCleanerJob, err)
		}
		var tr *tracer
		if ctx.Executor().Rank() == 0 {
			tr = childTracer
		}
		h, err := runCleaner(ctx, spec, tr)
		if err != nil {
			return nil, err
		}
		if ctx.Executor().Rank() == 0 {
			mprocHeld = h
		}
		return nil, nil
	})
	mproc.RegisterJob(mprocNoopJob, func(*engine.Context, []byte) ([]byte, error) { return nil, nil })
}

// runWorkload loads the files, composes the pipeline through core's public
// constructors, runs it and writes the output file.
func runWorkload(spec childSpec, tr *tracer) (*held, error) {
	switch spec.Workload {
	case "wgs":
		return runWGS(engine.NewContext(spec.Slots), spec, tr)
	case "caller":
		return runCaller(engine.NewContext(spec.Slots), spec, tr)
	case "cleaner":
		return runCleaner(engine.NewContext(spec.Slots), spec, tr)
	case "cleaner-ser":
		ctx := engine.NewContext(spec.Slots)
		ctx.StoreSerialized = true
		return runCleaner(ctx, spec, tr)
	case "cleaner-mproc":
		raw, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		childTracer = tr
		id := tr.begin("mproc.Run")
		res, err := mproc.Run(mprocCleanerJob, raw, mproc.Options{Procs: spec.Slots, Slots: 1})
		tr.end(id)
		if err != nil {
			return nil, err
		}
		h := mprocHeld
		h.metrics = res.Metrics
		h.mprocRun = res.Wall
		return h, nil
	}
	return nil, fmt.Errorf("unknown workload %q", spec.Workload)
}

func openIn(path string, fn func(f *os.File) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}

// writeOut creates the output file and checks Close, so a short write cannot
// pass for a finished run.
func writeOut(path string, fn func(f *os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// newRuntime reads the reference and the known sites and sizes the runtime.
func newRuntime(ctx *engine.Context, spec childSpec, tr *tracer) (*core.Runtime, error) {
	var ref *genome.Reference
	var known []vcf.Record
	var err error
	tr.do("genome.ReadFASTA", func() {
		err = openIn(filepath.Join(spec.Dir, "ref.fa"), func(f *os.File) (e error) {
			ref, e = genome.ReadFASTA(f)
			return e
		})
	})
	if err != nil {
		return nil, err
	}
	tr.do("vcf.Read", func() {
		err = openIn(filepath.Join(spec.Dir, "known.vcf"), func(f *os.File) (e error) {
			_, known, e = vcf.Read(f)
			return e
		})
	})
	if err != nil {
		return nil, err
	}
	rt := core.NewRuntime(ctx, ref)
	rt.NumPartitions = spec.NumPartitions
	rt.PartitionLen = spec.PartitionLen
	rt.Known = known
	return rt, nil
}

// readSAM loads the workload's SAM input as a defined SAM resource.
func readSAM(rt *core.Runtime, spec childSpec, def string, tr *tracer) (*core.SAMBundle, []sam.Record, error) {
	path := spec.Input
	if path == "" {
		path = filepath.Join(spec.Dir, def)
	}
	var header *sam.Header
	var recs []sam.Record
	var err error
	tr.do("sam.ReadText", func() {
		err = openIn(path, func(f *os.File) (e error) {
			header, recs, e = sam.ReadText(f)
			return e
		})
	})
	if err != nil {
		return nil, nil, err
	}
	var in *core.SAMBundle
	tr.do("core.load", func() {
		ds := engine.WithCodec(engine.Parallelize(rt.Engine, recs, rt.NumPartitions), rt.SAMCodec())
		in = core.DefinedSAM("inputSam", header, ds)
	})
	return in, recs, nil
}

func runWGS(ctx *engine.Context, spec childSpec, tr *tracer) (*held, error) {
	rt, err := newRuntime(ctx, spec, tr)
	if err != nil {
		return nil, err
	}
	var pairs []fastq.Pair
	tr.do("fastq.ReadPairs", func() {
		err = openIn(filepath.Join(spec.Dir, "reads_1.fastq"), func(f1 *os.File) error {
			return openIn(filepath.Join(spec.Dir, "reads_2.fastq"), func(f2 *os.File) (e error) {
				pairs, e = fastq.ReadPairs(f1, f2)
				return e
			})
		})
	})
	if err != nil {
		return nil, err
	}
	var wgs *core.WGSPipeline
	tr.do("core.load", func() {
		wgs = core.BuildWGSPipeline(rt, core.PairsToRDD(rt, pairs, rt.NumPartitions), false)
	})
	tr.do("core.Pipeline.Run", func() { err = wgs.Pipeline.Run() })
	if err != nil {
		return nil, err
	}
	h := &held{
		rt: rt, pipeline: wgs.Pipeline, pairs: pairs, vcfOut: wgs.VCF,
		sams: []*core.SAMBundle{wgs.Aligned, wgs.Deduped, wgs.Realigned, wgs.Recaled},
	}
	return h, writeVCF(h, spec, tr)
}

func runCaller(ctx *engine.Context, spec childSpec, tr *tracer) (*held, error) {
	rt, err := newRuntime(ctx, spec, tr)
	if err != nil {
		return nil, err
	}
	in, recs, err := readSAM(rt, spec, "recal.sam", tr)
	if err != nil {
		return nil, err
	}
	pl := core.NewPipeline("caller", rt)
	info := core.UndefinedPartitionInfo("partitionInfo")
	pl.AddProcess(core.NewReadRepartitionerProcess("ReadRepartitioner", []*core.SAMBundle{in}, info))
	result := core.UndefinedVCF("ResultVCF", nil)
	pl.AddProcess(core.NewHaplotypeCallerProcess("HaplotypeCaller", info, in, result, false))
	tr.do("core.Pipeline.Run", func() { err = pl.Run() })
	if err != nil {
		return nil, err
	}
	h := &held{rt: rt, pipeline: pl, input: recs, vcfOut: result, sams: []*core.SAMBundle{in}}
	return h, writeVCF(h, spec, tr)
}

// writeVCF collects the calls (the action that executes the lazy caller
// stage) and writes them as VCF text.
func writeVCF(h *held, spec childSpec, tr *tracer) error {
	var calls []vcf.Record
	var err error
	tr.do("core.collect", func() { calls, err = core.CollectVCF(h.rt, h.vcfOut) })
	if err != nil {
		return err
	}
	h.calls = len(calls)
	tr.do("vcf.Write", func() {
		err = writeOut(spec.Out, func(f *os.File) error { return vcf.Write(f, h.vcfOut.Header, calls) })
	})
	h.seal()
	return err
}

func runCleaner(ctx *engine.Context, spec childSpec, tr *tracer) (*held, error) {
	rt, err := newRuntime(ctx, spec, tr)
	if err != nil {
		return nil, err
	}
	in, recs, err := readSAM(rt, spec, "aligned.sam", tr)
	if err != nil {
		return nil, err
	}
	pl := core.NewPipeline("cleaner", rt)
	deduped := core.UndefinedSAM("dedupedSam", nil)
	pl.AddProcess(core.NewMarkDuplicateProcess("MarkDuplicate", in, deduped))
	info := core.UndefinedPartitionInfo("partitionInfo")
	pl.AddProcess(core.NewReadRepartitionerProcess("ReadRepartitioner", []*core.SAMBundle{deduped}, info))
	realigned := core.UndefinedSAM("realignedSam", nil)
	pl.AddProcess(core.NewIndelRealignProcess("IndelRealign", info, deduped, realigned))
	recaled := core.UndefinedSAM("recaledSam", nil)
	pl.AddProcess(core.NewBaseRecalibrationProcess("BaseRecalibration", info, realigned, recaled))
	tr.do("core.Pipeline.Run", func() { err = pl.Run() })
	if err != nil {
		return nil, err
	}
	h := &held{
		rt: rt, pipeline: pl, input: recs,
		sams: []*core.SAMBundle{in, deduped, realigned, recaled},
	}
	var out []sam.Record
	tr.do("core.collect", func() {
		var flat *engine.Dataset[sam.Record]
		if flat, err = recaled.EnsureFlat(rt); err == nil {
			out, err = engine.Collect("recaledSam/collect", flat)
		}
	})
	if err != nil {
		return nil, err
	}
	// Every rank collects (it is a collective); only the driver has a file.
	if ctx.Executor().Rank() == 0 {
		tr.do("sam.WriteText", func() {
			err = writeOut(spec.Out, func(f *os.File) error { return sam.WriteText(f, recaled.Header, out) })
		})
	}
	h.seal()
	return h, err
}

// seal snapshots the engine metrics once the output is written, before the
// traced pass's replays add stages of their own.
func (h *held) seal() { h.metrics = h.rt.Engine.Metrics() }
