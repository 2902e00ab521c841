package fastq

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"github.com/gpf-go/gpf/internal/genome"
)

// TestKernelSimulateGolden pins the bytes Simulate writes — every pair's
// names, bases and qualities — to the sha256 computed before applyErrors read
// its error probabilities from errProb instead of calling math.Pow per base:
// the table may not move an RNG draw or a comparison. One config runs the
// HiSeq profile with a hotspot and PCR duplicates, the other the GAII
// profile, whose lower qualities substitute more bases.
func TestKernelSimulateGolden(t *testing.T) {
	for q := range errProb {
		if want := math.Pow(10, -float64(q)/10); math.Float64bits(errProb[q]) != math.Float64bits(want) {
			t.Fatalf("errProb[%d] = %v, want %v", q, errProb[q], want)
		}
	}
	donor := testDonor(t, 21, 40000)
	hiseq := DefaultSimConfig(22, 8)
	hiseq.Hotspots = []genome.Interval{{Contig: 0, Start: 3000, End: 5000}}
	hiseq.HotspotFactor = 10
	hiseq.DuplicateRate = 0.1
	gaii := DefaultSimConfig(23, 8)
	gaii.Profile = ProfileGAII()
	gaii.DuplicateRate = 0
	for _, tc := range []struct {
		name   string
		cfg    SimConfig
		golden string
	}{
		{"hiseq-hotspot-dups", hiseq, "db9eb7c180a9240e1a262068662c26f3bee505c75c2d781b41721e1ba8278175"},
		{"gaii", gaii, "174ce62e7df087baf7b4ffc33e6133a62de1eb941c24bc6b94ee841f99db3bda"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pairs := Simulate(donor, tc.cfg)
			h := sha256.New()
			for i := range pairs {
				for _, r := range [2]*Record{&pairs[i].R1, &pairs[i].R2} {
					fmt.Fprintf(h, "%s\n%s\n%s\n", r.Name, r.Seq, r.Qual)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.golden {
				t.Fatalf("%d pairs hash to %s, want %s", len(pairs), got, tc.golden)
			}
		})
	}
}
