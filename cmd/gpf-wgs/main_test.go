package main

import (
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
	err := run("", "", "", out, 2, 4, 1_000_000, true, 40000, 8, false, false)
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
}

// TestSummaryReportsSerializeTimeAndPartitionLength: the "serializing" figure
// is the codec time, not all task time, the partition length the run used is
// printed, and so is the stage that ended on the largest heap.
func TestSummaryReportsSerializeTimeAndPartitionLength(t *testing.T) {
	m := engine.Metrics{Stages: []engine.StageMetrics{
		{Name: "align", HeapBytes: 30e6, Tasks: []engine.TaskMetrics{{Wall: 3 * time.Second, SerializeTime: time.Second}}},
		{Name: "sort/map", HeapBytes: 20e6, Tasks: []engine.TaskMetrics{{Wall: 2 * time.Second, SerializeTime: 250 * time.Millisecond, ShuffleWriteBytes: 2e6}}},
	}}
	got := summary(m, time.Second, 7, "calls.vcf", clampPartLen(1_000_000, 120000), []string{"a", "b"})
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

func TestClampPartLen(t *testing.T) {
	if got := clampPartLen(1_000_000, 40000); got != 4000 {
		t.Fatalf("clamp = %d, want genome/10", got)
	}
	if got := clampPartLen(1000, 40000); got != 1000 {
		t.Fatalf("small partLen should pass through: %d", got)
	}
}
