package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/pkg/gpf"
)

func TestWGSRunSynthetic(t *testing.T) {
	out := filepath.Join(t.TempDir(), "calls.vcf")
	err := run("", "", "", out, 2, 4, 0, true, 40000, 8, false, false)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	header, calls, err := gpf.ReadVCF(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(header.Contigs) != 3 {
		t.Fatalf("header contigs = %d", len(header.Contigs))
	}
	if len(calls) == 0 {
		t.Fatal("no calls written")
	}
}

func TestWGSRunMissingInputs(t *testing.T) {
	if err := run("", "", "", "x.vcf", 1, 2, 1000, false, 0, 0, false, false); err == nil {
		t.Fatal("missing inputs should error")
	}
	if err := run("/nonexistent.fa", "a", "b", "x.vcf", 1, 2, 1000, false, 0, 0, false, false); err == nil {
		t.Fatal("bad reference path should error")
	}
	if err := run("", "", "", "x.vcf", 1, 2, -1, true, 40000, 8, false, false); err == nil {
		t.Fatal("a negative partition length should error")
	}
}

// TestSummaryReportsSerializeTimeAndPartitionLength: the "serializing" figure
// is the codec time, not all task time, the partition length the run used is
// printed, and so is the stage that ended on the largest heap.
func TestSummaryReportsSerializeTimeAndPartitionLength(t *testing.T) {
	m := engine.Metrics{Stages: []engine.StageMetrics{
		{Name: "align", HeapBytes: 30e6, Tasks: []engine.TaskMetrics{{Wall: 3 * time.Second, SerializeTime: time.Second}}},
		{Name: "sort/map", HeapBytes: 20e6, Tasks: []engine.TaskMetrics{{Wall: 2 * time.Second, SerializeTime: 250 * time.Millisecond, ShuffleWriteBytes: 2e6}}},
	}}
	got := summary(m, time.Second, 7, "calls.vcf", clampPartLen(0, 120000), []string{"a", "b"})
	want := []string{
		"pipeline: 1s, 2 stages, 7 variants -> calls.vcf",
		"partition length: 12000 bases",
		"execution order: [a b]",
		"shuffle: 2.0 MB moved, 1.25s serializing",
		"heap: peak 30.0 MB, after align",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("summary:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestClampPartLen: 0 asks for the paper's 1 Mb, lowered to a tenth of a
// tiny genome; an explicit positive length is used as given, even one that
// puts each contig in one partition.
func TestClampPartLen(t *testing.T) {
	if got := clampPartLen(0, 40000); got != 4000 {
		t.Fatalf("automatic on a tiny genome = %d, want genome/10", got)
	}
	if got := clampPartLen(0, 10_000_000); got != 1_000_000 {
		t.Fatalf("automatic on a large genome = %d, want the paper's 1 Mb", got)
	}
	if got := clampPartLen(1000, 40000); got != 1000 {
		t.Fatalf("small partLen should pass through: %d", got)
	}
	if got := clampPartLen(1_000_000, 40000); got != 1_000_000 {
		t.Fatalf("explicit whole-contig partLen = %d, want it as given", got)
	}
}

// TestWriteAtomicKeepsOutputOnFailure: a write that fails part-way leaves an
// existing output as it was and no temporary file behind; one that succeeds
// replaces the output.
func TestWriteAtomicKeepsOutputOnFailure(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "calls.vcf")
	if err := os.WriteFile(out, []byte("old calls\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	errFull := errors.New("disk full")
	err := writeAtomic(out, func(w io.Writer) error {
		if _, err := io.WriteString(w, "##fileformat=VCFv4.2\n"); err != nil {
			return err
		}
		return errFull
	})
	if !errors.Is(err, errFull) {
		t.Fatalf("writeAtomic = %v, want the writer's error", err)
	}
	files := func() int { entries, _ := os.ReadDir(dir); return len(entries) }
	if got, _ := os.ReadFile(out); string(got) != "old calls\n" {
		t.Fatalf("failed write changed the output to %q", got)
	}
	if n := files(); n != 1 {
		t.Fatalf("failed write left %d files in the output directory, want 1", n)
	}
	if err := writeAtomic(out, func(w io.Writer) error { _, err := io.WriteString(w, "new calls\n"); return err }); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(out); string(got) != "new calls\n" {
		t.Fatalf("output = %q after a successful write", got)
	}
	if n := files(); n != 1 {
		t.Fatalf("successful write left %d files in the output directory, want 1", n)
	}
}
