package workload

import (
	"testing"
)

func TestKindNames(t *testing.T) {
	if WGS.String() != "WGS" || WES.String() != "WES" || GenePanel.String() != "GenePanel" {
		t.Fatal("kind names broken")
	}
}

func TestMakeProfiles(t *testing.T) {
	for _, kind := range []Kind{WGS, WES, GenePanel} {
		p := DefaultProfile(kind, 30000)
		d := Make(p, 7)
		if len(d.Pairs) == 0 {
			t.Fatalf("%s: no reads", kind)
		}
		if d.Ref.NumContigs() != p.Contigs {
			t.Fatalf("%s: contigs = %d", kind, d.Ref.NumContigs())
		}
		if len(d.Known) == 0 {
			t.Fatalf("%s: no known sites", kind)
		}
		if d.TotalBases() <= 0 || d.FASTQBytes() <= d.TotalBases() {
			t.Fatalf("%s: size accounting broken", kind)
		}
		if len(d.TruthVCF()) == 0 {
			t.Fatalf("%s: no truth records", kind)
		}
	}
}

func TestTargetedWorkloadsSmaller(t *testing.T) {
	// WES and panel sequence less territory, so fewer total bases than WGS
	// at the same genome size despite higher on-target coverage.
	wgs := Make(DefaultProfile(WGS, 40000), 11)
	wes := Make(DefaultProfile(WES, 40000), 11)
	if wes.TotalBases() >= wgs.TotalBases() {
		t.Fatalf("WES bases %d should be < WGS %d", wes.TotalBases(), wgs.TotalBases())
	}
}

func TestKnownSitesSubsetOfTruth(t *testing.T) {
	d := Make(DefaultProfile(WGS, 30000), 13)
	truth := map[string]bool{}
	for _, v := range d.TruthVCF() {
		truth[v.Chrom+string(rune(v.Pos))+v.Ref+v.Alt] = true
	}
	for _, k := range d.Known {
		if !truth[k.Chrom+string(rune(k.Pos))+k.Ref+k.Alt] {
			t.Fatal("known site not in truth set")
		}
	}
	if len(d.Known) >= len(d.TruthVCF()) {
		t.Fatal("known sites should be a strict subset")
	}
}

func TestMakeDeterministic(t *testing.T) {
	a := Make(DefaultProfile(WGS, 20000), 23)
	b := Make(DefaultProfile(WGS, 20000), 23)
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatal("same seed produced different datasets")
	}
	if a.Pairs[0].R1.Name != b.Pairs[0].R1.Name {
		t.Fatal("same seed produced different read names")
	}
}
