// Command gpf-datagen synthesizes a reference genome, a donor truth set and
// paired-end reads — the laptop-scale stand-in for the paper's NA12878
// Platinum Genome inputs (§5.1). It writes ref.fa, reads_1.fastq,
// reads_2.fastq and truth.vcf under the output prefix.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/pkg/gpf"
)

func main() {
	genomeLen := flag.Int("genome-len", 200000, "reference length in bases")
	contigs := flag.Int("contigs", 3, "number of contigs")
	coverage := flag.Float64("coverage", 15, "mean sequencing depth")
	seed := flag.Int64("seed", 42, "random seed")
	outDir := flag.String("out", ".", "output directory")
	flag.Parse()

	if err := run(*genomeLen, *contigs, *coverage, *seed, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "gpf-datagen:", err)
		os.Exit(1)
	}
}

func run(genomeLen, contigs int, coverage float64, seed int64, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	ref := gpf.SynthesizeGenome(gpf.DefaultSynthConfig(seed, genomeLen, contigs))
	donor := gpf.MutateGenome(ref, gpf.DefaultMutateConfig(seed+1))
	pairs := gpf.SimulateReads(donor, gpf.DefaultSimConfig(seed+2, coverage))

	refPath := filepath.Join(outDir, "ref.fa")
	f, err := os.Create(refPath)
	if err != nil {
		return err
	}
	if err := gpf.WriteFASTA(f, ref); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	for mate := 1; mate <= 2; mate++ {
		path := filepath.Join(outDir, fmt.Sprintf("reads_%d.fastq", mate))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		w := fastq.NewWriter(f)
		for i := range pairs {
			rec := &pairs[i].R1
			if mate == 2 {
				rec = &pairs[i].R2
			}
			if err := w.Write(rec); err != nil {
				f.Close()
				return err
			}
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	truthPath := filepath.Join(outDir, "truth.vcf")
	tf, err := os.Create(truthPath)
	if err != nil {
		return err
	}
	var truth []gpf.VCFRecord
	for _, v := range donor.Truth.Variants {
		gt := gpf.VCFRecord{
			Chrom: ref.Contigs[v.Contig].Name,
			Pos:   v.Pos,
			Ref:   string(v.Ref),
			Alt:   string(v.Alt),
			Qual:  100,
		}
		truth = append(truth, gt)
	}
	names := make([]string, ref.NumContigs())
	for i := range names {
		names[i] = ref.Contigs[i].Name
	}
	if err := gpf.WriteVCF(tf, gpf.NewVCFHeader(names, ref.Lengths(), "SAMPLE"), truth); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}

	fmt.Printf("wrote %s (%d contigs, %d bases), %d read pairs, %d truth variants\n",
		refPath, ref.NumContigs(), ref.TotalLen(), len(pairs), len(truth))
	return nil
}
