package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/gpf-go/gpf/internal/align"
	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/vcf"
	"github.com/gpf-go/gpf/internal/workload"
)

// fileInfo is one manifest row: a generated input, its size and hash. The
// same seed must give the same rows; aligned.sam and recal.sam come from the
// commit's own aligner and cleaner, so a changed hash there says a
// cleaner-family or caller delta is confounded by an upstream change.
type fileInfo struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

func hashFile(path string) (fileInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return fileInfo{}, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return fileInfo{}, err
	}
	return fileInfo{Name: filepath.Base(path), Bytes: n, SHA256: hex.EncodeToString(h.Sum(nil))}, nil
}

func manifestOf(dir string, names ...string) ([]fileInfo, error) {
	out := make([]fileInfo, 0, len(names))
	for _, n := range names {
		fi, err := hashFile(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		out = append(out, fi)
	}
	return out, nil
}

// sampleSeed pins the sample every run sequences: the reference and the
// donor's variants. --seed draws the reads. With the sample drawn from the
// seed too (workload.Make), the variant count and the repeat content moved
// caller and aligner work by 20% between seeds — more than any change this
// benchmark is meant to resolve; real pipelines also meet one reference and
// many sequencing runs.
const sampleSeed = 42

// dataset synthesizes the run's input as workload.Make does (3 contigs, two
// 2 kb hotspots on the first), with the reads alone drawn from seed.
func (s sizing) dataset(coverage float64, seed int64) *workload.Dataset {
	p := workload.DefaultProfile(workload.WGS, s.GenomeLen)
	p.Coverage, p.HotspotFactor = coverage, s.HotspotFactor
	ref := genome.Synthesize(genome.DefaultSynthConfig(sampleSeed, p.GenomeLen, p.Contigs))
	donor := genome.Mutate(ref, genome.DefaultMutateConfig(sampleSeed+1))
	cfg := fastq.DefaultSimConfig(seed, coverage)
	cfg.SampleName = fmt.Sprintf("%s-%d", p.Kind, seed)
	cfg.HotspotFactor = p.HotspotFactor
	for i := 0; i < p.HotspotCount; i++ {
		start := (i + 1) * p.GenomeLen / (p.HotspotCount + 2) / p.Contigs
		cfg.Hotspots = append(cfg.Hotspots, genome.Interval{Contig: 0, Start: start, End: start + 2000})
	}
	return &workload.Dataset{
		Name: cfg.SampleName, Profile: p, Ref: ref, Donor: donor,
		Pairs: fastq.Simulate(donor, cfg),
		Known: workload.KnownSites(ref, donor, sampleSeed+3),
	}
}

// writeCommon writes what every workload reads (reference, known sites) and
// the truth set the benchmark scores calls against.
func writeCommon(dir string, d *workload.Dataset) error {
	if err := writeOut(filepath.Join(dir, "ref.fa"), func(f *os.File) error { return genome.WriteFASTA(f, d.Ref) }); err != nil {
		return err
	}
	if err := writeOut(filepath.Join(dir, "known.vcf"), func(f *os.File) error { return vcf.Write(f, nil, d.Known) }); err != nil {
		return err
	}
	return writeOut(filepath.Join(dir, "truth.vcf"), func(f *os.File) error { return vcf.Write(f, nil, d.TruthVCF()) })
}

// genWGS writes the wgs inputs: FASTQ pair, FASTA, known-sites VCF.
func genWGS(dir string, s sizing, seed int64) ([]fileInfo, error) {
	d := s.dataset(s.WGSCoverage, seed)
	if err := writeCommon(dir, d); err != nil {
		return nil, err
	}
	for mate := 1; mate <= 2; mate++ {
		err := writeOut(filepath.Join(dir, fmt.Sprintf("reads_%d.fastq", mate)), func(f *os.File) error {
			w := fastq.NewWriter(f)
			for i := range d.Pairs {
				rec := &d.Pairs[i].R1
				if mate == 2 {
					rec = &d.Pairs[i].R2
				}
				if err := w.Write(rec); err != nil {
					return err
				}
			}
			return w.Flush()
		})
		if err != nil {
			return nil, err
		}
	}
	return manifestOf(dir, "ref.fa", "known.vcf", "truth.vcf", "reads_1.fastq", "reads_2.fastq")
}

// genAligned writes the cleaner family's input: the CleanCoverage reads of the
// same sample aligned by this commit's aligner on every core, as SAM text in
// read order.
func genAligned(dir string, s sizing, seed int64) ([]fileInfo, error) {
	d := s.dataset(s.CleanCoverage, seed)
	if err := writeCommon(dir, d); err != nil {
		return nil, err
	}
	idx, err := align.BuildFMIndex(d.Ref)
	if err != nil {
		return nil, err
	}
	aligner := align.NewAligner(idx, align.DefaultConfig())
	recs := make([]sam.Record, 2*len(d.Pairs))
	workers := runtime.NumCPU()
	chunk := (len(d.Pairs) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(d.Pairs); lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				recs[2*i], recs[2*i+1] = aligner.AlignPair(&d.Pairs[i])
			}
		}(lo, min(lo+chunk, len(d.Pairs)))
	}
	wg.Wait()
	names := make([]string, d.Ref.NumContigs())
	for i := range names {
		names[i] = d.Ref.Contigs[i].Name
	}
	header, err := sam.NewHeader(sam.Unsorted, names, d.Ref.Lengths())
	if err != nil {
		return nil, err
	}
	if err := writeOut(filepath.Join(dir, "aligned.sam"), func(f *os.File) error { return sam.WriteText(f, header, recs) }); err != nil {
		return nil, err
	}
	return manifestOf(dir, "ref.fa", "known.vcf", "truth.vcf", "aligned.sam")
}

// setup generates the inputs a workload needs into dir and returns their
// manifest and how long it took.
func (c *runConfig) setup(dir string) ([]fileInfo, float64, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	if c.workload == "wgs" {
		m, err := genWGS(dir, c.size, c.seed)
		return m, time.Since(start).Seconds(), err
	}
	m, err := genAligned(dir, c.size, c.seed)
	if err != nil {
		return nil, 0, err
	}
	if c.workload == "caller" {
		// The caller's input is the cleaner's output on the same sample.
		recal := filepath.Join(dir, "recal.sam")
		if _, err := c.spawn(c.childSpec("cleaner", dir, recal)); err != nil {
			return nil, 0, fmt.Errorf("setup: cleaner: %w", err)
		}
		fi, err := hashFile(recal)
		if err != nil {
			return nil, 0, err
		}
		m = append(m, fi)
	}
	return m, time.Since(start).Seconds(), nil
}
