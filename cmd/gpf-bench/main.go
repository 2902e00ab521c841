// Command gpf-bench regenerates the tables and figures of the paper's
// evaluation (§5). Each experiment runs the real pipeline on synthetic
// workloads and, where the paper measured a 2048-core cluster, replays the
// measured trace through the cluster simulator.
//
//	gpf-bench -exp fig10                    # one experiment
//	gpf-bench -exp all                      # everything
//	gpf-bench -exp table4 -scale default
//	gpf-bench -exp wgs -backend=mproc -procs 4   # WGS on the multi-process backend
//	gpf-bench -exp scaling                  # measured W=1..8 curve vs simulator
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/gpf-go/gpf/internal/engine/exec/mproc"
	"github.com/gpf-go/gpf/internal/experiments"
)

// Backend selection for the wgs runner (see -backend / -procs).
var (
	backendName string
	backendProc int
)

// A runner reads the invocation's shared runs: every experiment that replays
// a configuration of the WGS pipeline replays the same measured run.
type runner struct {
	id  string
	fn  func(*experiments.Runs) ([]string, error)
	doc string
}

func runners() []runner {
	return []runner{
		{"table1", func(r *experiments.Runs) ([]string, error) {
			return format(experiments.Table1(r))
		}, "I/O vs CPU share of the file-handoff pipeline, 1 vs 30 samples, Lustre vs NFS"},
		{"fig5", func(r *experiments.Runs) ([]string, error) {
			return format(experiments.Fig5(r.Scale))
		}, "quality-score and adjacent-delta distributions of two samples"},
		{"table3", func(r *experiments.Runs) ([]string, error) {
			return format(experiments.Table3(r.Scale))
		}, "genomic compression per pipeline stage"},
		{"table4", func(r *experiments.Runs) ([]string, error) {
			return format(experiments.Table4(r))
		}, "redundancy elimination on vs off"},
		{"fig10", func(r *experiments.Runs) ([]string, error) {
			return format(experiments.Fig10(r))
		}, "cluster scalability: GPF vs Churchill, 128-2048 cores"},
		{"fig11", func(r *experiments.Runs) ([]string, error) {
			return format(experiments.Fig11(r))
		}, "per-stage strong scaling vs ADAM/GATK4/Persona + aligner throughput"},
		{"fig12", func(r *experiments.Runs) ([]string, error) {
			return format(experiments.Fig12(r))
		}, "blocked-time analysis: JCT bound from eliminating disk/network"},
		{"fig13", func(r *experiments.Runs) ([]string, error) {
			return format(experiments.Fig13(r))
		}, "resource-utilization timeline at 2048 cores"},
		{"table5", func(r *experiments.Runs) ([]string, error) {
			return format(experiments.Table5(r))
		}, "platform comparison: parallel efficiency"},
		{"scaling", func(r *experiments.Runs) ([]string, error) {
			return format(experiments.Scaling(r.Scale))
		}, "multi-process scaling: measured W=1,2,4,8 vs simulator prediction"},
		{"wgs", func(r *experiments.Runs) ([]string, error) {
			return experiments.RunWGSOn(r, backendName, backendProc)
		}, "one WGS run on the selected executor backend (-backend, -procs)"},
	}
}

type formatter interface{ Format() []string }

func format(r formatter, err error) ([]string, error) {
	if err != nil {
		return nil, err
	}
	return r.Format(), nil
}

// expUsage is the -exp help text: every runner id, then "all".
func expUsage() string {
	var ids strings.Builder
	for _, r := range runners() {
		ids.WriteString(r.id + "|")
	}
	return "experiment id (" + ids.String() + "all)"
}

// scaleNamed resolves -scale. A name other than small or default is an
// error rather than a silent small run.
func scaleNamed(name string) (experiments.Scale, error) {
	switch name {
	case "small":
		return experiments.SmallScale(), nil
	case "default":
		return experiments.DefaultScale(), nil
	}
	return experiments.Scale{}, fmt.Errorf("unknown scale %q (small|default)", name)
}

func main() {
	// When re-exec'd as an mproc worker this never returns; it must run
	// before any flag or experiment logic.
	mproc.WorkerMaybe()

	exp := flag.String("exp", "all", expUsage())
	scaleName := flag.String("scale", "small", "workload scale (small|default)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.StringVar(&backendName, "backend", "inproc", "executor backend for -exp wgs (inproc|mproc)")
	flag.IntVar(&backendProc, "procs", 4, "worker processes for -backend=mproc")
	flag.Parse()

	if *list {
		rs := runners()
		width := 0
		for _, r := range rs {
			width = max(width, len(r.id))
		}
		for _, r := range rs {
			fmt.Printf("%-*s %s\n", width, r.id, r.doc)
		}
		return
	}
	scale, err := scaleNamed(*scaleName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpf-bench: %v\n", err)
		os.Exit(1)
	}
	runs := experiments.NewRuns(scale)
	ran := false
	for _, r := range runners() {
		if *exp != "all" && *exp != r.id {
			continue
		}
		ran = true
		start := time.Now()
		lines, err := r.fn(runs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpf-bench: %s: %v\n", r.id, err)
			os.Exit(1)
		}
		fmt.Printf("== %s (%s) [%v]\n", r.id, r.doc, time.Since(start).Round(time.Millisecond))
		for _, l := range lines {
			fmt.Println(l)
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "gpf-bench: unknown experiment %q (use -list)\n", *exp)
		os.Exit(1)
	}
}
