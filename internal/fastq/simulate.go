package fastq

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/gpf-go/gpf/internal/genome"
)

// QualityProfile parameterizes the per-cycle quality model of a sequencing
// instrument. Real instruments show high, flat quality early in the read that
// decays toward the 3' end, with strongly correlated adjacent scores — the
// property the paper's delta+Huffman quality codec exploits (Fig 5: the vast
// majority of adjacent deltas fall in 0-10).
type QualityProfile struct {
	Name      string
	StartMean float64 // mean Phred at cycle 0
	EndMean   float64 // mean Phred at the last cycle
	Jitter    float64 // stddev of the random walk between adjacent cycles
	DropRate  float64 // probability per cycle of a transient low-quality dip
	DropDepth float64 // Phred drop of a dip
}

// ProfileHiSeq resembles the SRR622461 Platinum Genome HiSeq 2000 run used in
// the paper: high flat quality with a mild tail decay.
func ProfileHiSeq() QualityProfile {
	return QualityProfile{Name: "SRR622461", StartMean: 37, EndMean: 30, Jitter: 1.2, DropRate: 0.01, DropDepth: 20}
}

// ProfileGAII resembles the older SRR504516-style run: lower, noisier quality.
func ProfileGAII() QualityProfile {
	return QualityProfile{Name: "SRR504516", StartMean: 33, EndMean: 18, Jitter: 2.5, DropRate: 0.03, DropDepth: 15}
}

// SimConfig controls paired-end read simulation (wgsim-style).
type SimConfig struct {
	Seed         int64
	ReadLen      int     // bases per mate (paper: ~100)
	FragmentMean float64 // DNA fragment length mean
	FragmentSD   float64
	Coverage     float64 // mean depth of coverage across the genome
	Profile      QualityProfile
	// Hotspots multiply sampling density inside intervals, reproducing the
	// >10,000x coverage spikes of §4.4 that break static partitioning.
	Hotspots      []genome.Interval
	HotspotFactor float64 // density multiplier inside hotspots (default 50)
	DuplicateRate float64 // fraction of fragments emitted twice (PCR duplicates for MarkDuplicate)
	SampleName    string  // prefix for read names
}

// DefaultSimConfig returns a laptop-scale configuration.
func DefaultSimConfig(seed int64, coverage float64) SimConfig {
	return SimConfig{
		Seed:          seed,
		ReadLen:       100,
		FragmentMean:  300,
		FragmentSD:    30,
		Coverage:      coverage,
		Profile:       ProfileHiSeq(),
		HotspotFactor: 50,
		DuplicateRate: 0.02,
		SampleName:    "sim",
	}
}

// Simulate samples paired-end reads from the donor's haplotypes. Reads carry
// sequencing errors drawn from their own quality scores, so downstream BQSR
// and calling see realistic error structure. The result ordering is the
// sampling order (unsorted, as reads come off a sequencer).
func Simulate(donor *genome.Donor, cfg SimConfig) []Pair {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.ReadLen <= 0 {
		cfg.ReadLen = 100
	}
	if cfg.FragmentMean <= 0 {
		cfg.FragmentMean = 300
	}
	if cfg.HotspotFactor <= 0 {
		cfg.HotspotFactor = 50
	}
	if cfg.SampleName == "" {
		cfg.SampleName = "sim"
	}
	var pairs []Pair
	serial := 0
	for contigID := range donor.Ref.Contigs {
		contigLen := donor.Ref.Contigs[contigID].Len()
		if contigLen < int(cfg.FragmentMean)+1 {
			continue
		}
		// Number of fragments for target coverage: cov * len / (2*readLen).
		baseFragments := int(cfg.Coverage * float64(contigLen) / float64(2*cfg.ReadLen))
		for i := 0; i < baseFragments; i++ {
			p, ok := sampleFragment(donor, contigID, rng, cfg, &serial)
			if !ok {
				continue
			}
			pairs = append(pairs, p)
			if rng.Float64() < cfg.DuplicateRate {
				// A duplicate copies the pair's bases and qualities exactly,
				// under a new name.
				dup := clonePairWithName(p, fmt.Sprintf("%s_%d", cfg.SampleName, serial))
				serial++
				pairs = append(pairs, dup)
			}
		}
		// Hotspot oversampling.
		for _, hs := range cfg.Hotspots {
			if hs.Contig != contigID {
				continue
			}
			extra := int(cfg.Coverage * (cfg.HotspotFactor - 1) * float64(hs.Len()) / float64(2*cfg.ReadLen))
			for i := 0; i < extra; i++ {
				p, ok := sampleFragmentIn(donor, contigID, hs.Start, hs.End, rng, cfg, &serial)
				if !ok {
					continue
				}
				pairs = append(pairs, p)
			}
		}
	}
	return pairs
}

func clonePairWithName(p Pair, name string) Pair {
	q := Pair{
		R1: Record{Name: name + "/1", Seq: append([]byte(nil), p.R1.Seq...), Qual: append([]byte(nil), p.R1.Qual...)},
		R2: Record{Name: name + "/2", Seq: append([]byte(nil), p.R2.Seq...), Qual: append([]byte(nil), p.R2.Qual...)},
	}
	return q
}

func sampleFragment(donor *genome.Donor, contigID int, rng *rand.Rand, cfg SimConfig, serial *int) (Pair, bool) {
	hap := rng.Intn(2)
	seq := donor.Hap[hap][contigID]
	return sampleFrom(seq, contigID, 0, len(seq), rng, cfg, serial)
}

func sampleFragmentIn(donor *genome.Donor, contigID, start, end int, rng *rand.Rand, cfg SimConfig, serial *int) (Pair, bool) {
	hap := rng.Intn(2)
	seq := donor.Hap[hap][contigID]
	if end > len(seq) {
		end = len(seq)
	}
	return sampleFrom(seq, contigID, start, end, rng, cfg, serial)
}

func sampleFrom(seq []byte, contigID, lo, hi int, rng *rand.Rand, cfg SimConfig, serial *int) (Pair, bool) {
	fragLen := int(rng.NormFloat64()*cfg.FragmentSD + cfg.FragmentMean)
	if fragLen < 2*cfg.ReadLen {
		fragLen = 2 * cfg.ReadLen
	}
	span := hi - lo - fragLen
	if span <= 0 {
		return Pair{}, false
	}
	start := lo + rng.Intn(span)
	frag := seq[start : start+fragLen]
	name := fmt.Sprintf("%s_%d", cfg.SampleName, *serial)
	*serial++

	r1seq := append([]byte(nil), frag[:cfg.ReadLen]...)
	r2seq := genome.ReverseComplement(frag[fragLen-cfg.ReadLen:])
	r1q := sampleQualities(rng, cfg.Profile, cfg.ReadLen)
	r2q := sampleQualities(rng, cfg.Profile, cfg.ReadLen)
	applyErrors(rng, r1seq, r1q)
	applyErrors(rng, r2seq, r2q)
	return Pair{
		R1: Record{Name: name + "/1", Seq: r1seq, Qual: r1q},
		R2: Record{Name: name + "/2", Seq: r2seq, Qual: r2q},
	}, true
}

// sampleQualities draws a per-cycle quality string: a linear decay plus a
// bounded random walk, with occasional dips. Adjacent scores are correlated
// by construction.
func sampleQualities(rng *rand.Rand, p QualityProfile, n int) []byte {
	q := make([]byte, n)
	walk := 0.0
	for i := 0; i < n; i++ {
		frac := float64(i) / float64(max(n-1, 1))
		mean := p.StartMean + (p.EndMean-p.StartMean)*frac
		walk += rng.NormFloat64() * p.Jitter * 0.3
		// Keep the walk bounded so quality stays in a plausible band.
		if walk > 3*p.Jitter {
			walk = 3 * p.Jitter
		}
		if walk < -3*p.Jitter {
			walk = -3 * p.Jitter
		}
		phred := mean + walk
		if rng.Float64() < p.DropRate {
			phred -= p.DropDepth * rng.Float64()
		}
		if phred < 2 {
			phred = 2
		}
		if phred > 41 {
			phred = 41
		}
		q[i] = byte(QualMin + int(phred+0.5))
	}
	return q
}

// errProb[q] is 10^(-q/10), the error probability of Phred score q, for
// every score a quality byte can carry.
var errProb = func() (t [256]float64) {
	for q := range t {
		t[q] = math.Pow(10, -float64(q)/10)
	}
	return t
}()

// applyErrors substitutes bases with probability 10^(-Q/10) given that base's
// quality, so the quality string truthfully reports the error rate.
func applyErrors(rng *rand.Rand, seq, qual []byte) {
	for i := range seq {
		if seq[i] == 'N' {
			// Ns keep a floor-quality score.
			qual[i] = QualMin + 2
			continue
		}
		if rng.Float64() < errProb[qual[i]-QualMin] {
			seq[i] = substitute(rng, seq[i])
		}
	}
}

func substitute(rng *rand.Rand, b byte) byte {
	for {
		alt := genome.Alphabet[rng.Intn(4)]
		if alt != b {
			return alt
		}
	}
}
