// Command gpf-wgs runs the paper's WGS pipeline (Fig 3) end to end: FASTQ
// pairs are aligned with the BWT aligner, cleaned (duplicate marking, indel
// realignment, base recalibration over dynamically balanced partitions) and
// called into a VCF — all through the GPF in-memory engine.
//
// Run it either on files produced by gpf-datagen:
//
//	gpf-wgs -ref ref.fa -fastq1 reads_1.fastq -fastq2 reads_2.fastq -out calls.vcf
//
// or fully self-contained on a synthetic dataset:
//
//	gpf-wgs -synthetic -out calls.vcf
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/pkg/gpf"
)

func main() {
	refPath := flag.String("ref", "", "reference FASTA")
	fq1 := flag.String("fastq1", "", "mate-1 FASTQ")
	fq2 := flag.String("fastq2", "", "mate-2 FASTQ")
	outPath := flag.String("out", "calls.vcf", "output VCF path")
	workers := flag.Int("workers", 0, "engine workers (0 = GOMAXPROCS)")
	partitions := flag.Int("partitions", 16, "input partitions")
	partLen := flag.Int("partition-len", 0, "genomic partition length in bases (0 = the paper's 1 Mb, a tenth of a genome under 4 Mb)")
	synthetic := flag.Bool("synthetic", false, "run on a built-in synthetic dataset")
	synthLen := flag.Int("synthetic-len", 150000, "synthetic genome length")
	coverage := flag.Float64("coverage", 12, "synthetic coverage")
	noOptimize := flag.Bool("no-optimize", false, "disable Process-level redundancy elimination")
	gvcf := flag.Bool("gvcf", false, "emit gVCF-style output")
	flag.Parse()

	if err := run(*refPath, *fq1, *fq2, *outPath, *workers, *partitions, *partLen,
		*synthetic, *synthLen, *coverage, *noOptimize, *gvcf); err != nil {
		fmt.Fprintln(os.Stderr, "gpf-wgs:", err)
		os.Exit(1)
	}
}

func run(refPath, fq1, fq2, outPath string, workers, partitions, partLen int,
	synthetic bool, synthLen int, coverage float64, noOptimize, gvcf bool) error {
	if partLen < 0 {
		return fmt.Errorf("-partition-len %d: want 0 (automatic) or a positive length", partLen)
	}
	eng := gpf.NewEngine(workers)
	var ref *gpf.Reference
	var pairs *gpf.Dataset[gpf.FASTQPair]
	var rt *gpf.Runtime

	switch {
	case synthetic:
		ref = gpf.SynthesizeGenome(gpf.DefaultSynthConfig(42, synthLen, 3))
		donor := gpf.MutateGenome(ref, gpf.DefaultMutateConfig(43))
		raw := gpf.SimulateReads(donor, gpf.DefaultSimConfig(44, coverage))
		rt = gpf.NewRuntime(eng, ref)
		rt.PartitionLen = clampPartLen(partLen, synthLen)
		pairs = gpf.PairsToRDD(rt, raw, partitions)
		fmt.Printf("synthetic dataset: %d bases, %d read pairs\n", ref.TotalLen(), len(raw))
	case refPath != "" && fq1 != "" && fq2 != "":
		rf, err := os.Open(refPath)
		if err != nil {
			return err
		}
		ref, err = gpf.ReadFASTA(rf)
		rf.Close()
		if err != nil {
			return err
		}
		f1, err := os.Open(fq1)
		if err != nil {
			return err
		}
		defer f1.Close()
		f2, err := os.Open(fq2)
		if err != nil {
			return err
		}
		defer f2.Close()
		rt = gpf.NewRuntime(eng, ref)
		rt.PartitionLen = clampPartLen(partLen, int(ref.TotalLen()))
		pairs, err = gpf.LoadFastqPairToRDD(rt, f1, f2, partitions)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("either -synthetic or all of -ref/-fastq1/-fastq2 are required")
	}

	rt.Optimize = !noOptimize
	start := time.Now()
	wgs := gpf.BuildWGSPipeline(rt, pairs, gvcf)
	if err := wgs.Pipeline.Run(); err != nil {
		return err
	}
	calls, err := gpf.CollectVCF(rt, wgs.VCF)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if err := writeAtomic(outPath, func(w io.Writer) error { return gpf.WriteVCF(w, wgs.VCF.Header, calls) }); err != nil {
		return err
	}

	for _, line := range summary(eng.Metrics(), elapsed, len(calls), outPath, rt.PartitionLen, wgs.Pipeline.ExecutionOrder()) {
		fmt.Println(line)
	}
	return nil
}

// writeAtomic writes path through write into a synced temporary file (mode
// 0644) in path's directory, then renames it over path: a failed write, sync
// or close leaves path as it was and removes the temporary file.
func writeAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err = errors.Join(tmp.Chmod(0o644), write(tmp), tmp.Sync(), tmp.Close()); err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name()) // err already reports what failed
	}
	return err
}

// summary is the report printed after a run: pipeline time, stage and call
// counts, the partition length the run used (clampPartLen's choice when
// none was given), the execution order, and the bytes shuffled with the
// codec time spent on them, and the largest heap a stage ended on.
func summary(m engine.Metrics, elapsed time.Duration, calls int, outPath string, partLen int, order []string) []string {
	var serialize time.Duration
	peak := 0
	for i := range m.Stages {
		serialize += m.Stages[i].SerializeTime()
		if m.Stages[i].HeapBytes > m.Stages[peak].HeapBytes {
			peak = i
		}
	}
	lines := []string{
		fmt.Sprintf("pipeline: %v, %d stages, %d variants -> %s",
			elapsed.Round(time.Millisecond), m.NumStages(), calls, outPath),
		fmt.Sprintf("partition length: %d bases", partLen),
		fmt.Sprintf("execution order: %v", order),
		fmt.Sprintf("shuffle: %.1f MB moved, %.2fs serializing",
			float64(m.TotalShuffleBytes())/1e6, serialize.Seconds()),
	}
	if len(m.Stages) > 0 {
		st := &m.Stages[peak]
		lines = append(lines, fmt.Sprintf("heap: peak %.1f MB, after %s", float64(st.HeapBytes)/1e6, st.Name))
	}
	return lines
}

// clampPartLen is the partition length a run uses: an explicit positive
// partLen as given; 0 picks the paper's 1 Mb, or a tenth of the genome when
// the genome is shorter than 4 Mb, so that a tiny genome still splits.
func clampPartLen(partLen, genomeLen int) int {
	const paper = 1_000_000
	if partLen > 0 {
		return partLen
	}
	if paper > genomeLen/4 && genomeLen >= 40 {
		return genomeLen / 10
	}
	return paper
}
