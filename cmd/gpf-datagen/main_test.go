package main

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/gpf-go/gpf/pkg/gpf"
)

func TestDatagenRun(t *testing.T) {
	dir := t.TempDir()
	if err := run(20000, 2, 5, 7, dir); err != nil {
		t.Fatal(err)
	}
	// Reference parses back.
	rf, err := os.Open(filepath.Join(dir, "ref.fa"))
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	ref, err := gpf.ReadFASTA(rf)
	if err != nil {
		t.Fatal(err)
	}
	if ref.NumContigs() != 2 {
		t.Fatalf("contigs = %d", ref.NumContigs())
	}
	// FASTQ mates parse and zip.
	f1, err := os.Open(filepath.Join(dir, "reads_1.fastq"))
	if err != nil {
		t.Fatal(err)
	}
	defer f1.Close()
	f2, err := os.Open(filepath.Join(dir, "reads_2.fastq"))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	rt := gpf.NewRuntime(gpf.NewEngine(1), ref)
	ds, err := gpf.LoadFastqPairToRDD(rt, f1, f2, 2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gpf.Count("count", ds)
	if err != nil || n == 0 {
		t.Fatalf("pairs = %d, %v", n, err)
	}
	// Truth VCF parses.
	tf, err := os.Open(filepath.Join(dir, "truth.vcf"))
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	_, truth, err := gpf.ReadVCF(tf)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) == 0 {
		t.Fatal("no truth variants written")
	}
}

func TestDatagenRunBadDir(t *testing.T) {
	if err := run(1000, 1, 2, 1, "/proc/definitely/not/writable"); err == nil {
		t.Fatal("unwritable output dir should error")
	}
	// A reads file that cannot take its bytes (a symlink to /dev/full) fails
	// the run instead of leaving a short file behind.
	if _, err := os.Stat("/dev/full"); err != nil {
		return
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, "reads_1.fastq")); err != nil {
		t.Fatal(err)
	}
	if err := run(1000, 1, 2, 1, dir); err == nil {
		t.Fatal("writing reads to a full device should error")
	}
}
