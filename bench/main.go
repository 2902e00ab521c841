// Command bench is the repository's benchmark: five file-in/file-out
// workloads, six end-to-end metrics and an outside-in layer trace (see
// README.md in this directory and BENCHMARK.json at the repository root).
//
//	go run ./bench                                  every workload, seed 42
//	go run ./bench -workload cleaner -trace 1       one workload with the layer trace
//	go run ./bench -seeds 10 -out new.json          ten seeds per workload, archived
//	go run ./bench -cmp old.json new.json           deltas against the bounds
//	go run ./bench -calibrate                       two full sets, compared
//
// The benchmark driver runs
// `bash bench/run.sh --workload W --seed N --seconds S --trace 0|1` and reads
// the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"github.com/gpf-go/gpf/internal/engine/exec/mproc"
)

func main() {
	mproc.WorkerMaybe() // a re-exec'd cleaner-mproc rank never returns from here
	if len(os.Args) > 1 && os.Args[1] == "exec" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: every workload in turn)")
	seed := fs.Int64("seed", 42, "input seed; the same seed gives the same inputs")
	seeds := fs.Int("seeds", 1, "runs per workload, on consecutive seeds from -seed")
	seconds := fs.Float64("seconds", 10, "measure each run for this long (at least 3 repetitions)")
	reps := fs.Int("reps", 0, "timed repetitions per run, instead of -seconds")
	trace := fs.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	outPath := fs.String("out", "", "write the report as JSON to this file")
	cmp := fs.Bool("cmp", false, "compare two reports: -cmp old.json new.json")
	calibrate := fs.Bool("calibrate", false, "run the whole set twice (-seeds defaults to 10) and compare the two")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -cmp wants two report files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	names := []string{*workload}
	if *workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if !workloadNamed(*workload) {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// Everything the benchmark writes stays under .bench_build in the
	// directory it is run from (the checkout, for the driver).
	base, err := filepath.Abs(".bench_build")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cfg := runConfig{
		seconds: *seconds, reps: *reps, warmup: 1, setups: 3, trace: *trace != 0,
		size: fullSizing, slots: min(runtime.NumCPU(), 4), exe: exe,
	}
	if cfg.trace {
		cfg.setups = 1 // setup_s is not reported by a traced run
	}
	if *calibrate && *seeds == 1 {
		*seeds = 10
	}
	// set runs every selected workload on every seed; complete is false when a
	// run could not be measured at all (as opposed to measured with failed ops).
	set := func() (rep *report, complete bool) {
		rep = &report{Header: newHeader(cfg, *seed)}
		for _, name := range names {
			for s := *seed; s < *seed+int64(*seeds); s++ {
				c := cfg
				c.workload, c.seed = name, s
				c.scratch = filepath.Join(base, fmt.Sprintf("run-%d-%s", os.Getpid(), name))
				c.traceOut = filepath.Join(base, "trace-"+name+".json")
				res, err := c.run()
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", name, s, err)
					return rep, false
				}
				rep.Runs = append(rep.Runs, res)
				printRun(stdout, res, c.traceOut)
			}
		}
		return rep, true
	}

	rep, complete := set()
	bad := !complete || rep.failedOps() > 0
	if *calibrate && !bad {
		second, complete2 := set()
		complete = complete2
		bad = !complete || second.failedOps() > 0 || compare(rep, second, stdout)
		rep = second
	}
	if *outPath != "" {
		if err := rep.write(*outPath); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if complete {
		// The driver's line: the last run's metrics. A run that could not be
		// measured prints no result at all.
		last := rep.Runs[len(rep.Runs)-1]
		line := resultLine{Correct: last.Failed == 0, Attempted: last.Attempted, Failed: last.Failed, Metrics: map[string]lineMetric{}}
		metrics := last.EndToEnd
		if cfg.trace {
			metrics = last.PerLayer
		}
		for name, v := range metrics {
			line.Metrics[name] = lineMetric{v.Value, v.Unit}
		}
		if err := json.NewEncoder(stdout).Encode(line); err != nil {
			return 1
		}
	}
	if bad {
		return 1
	}
	return 0
}

func printRun(w io.Writer, r *runResult, tracePath string) {
	fmt.Fprintf(w, "== %s  seed %d  ops_attempted %d  ops_failed %d\n", r.Workload, r.Seed, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, f := range r.Manifest {
		fmt.Fprintf(w, "  input %-14s %10d B  sha256 %s\n", f.Name, f.Bytes, f.SHA256[:16])
	}
	for _, d := range endToEnd {
		v := r.EndToEnd[d.Name]
		fmt.Fprintf(w, "  %-32s %14.6g %-6s", d.Name, v.Value, d.Unit)
		if n := len(v.Samples); n > 0 {
			lo, hi := v.Samples[0], v.Samples[0]
			for _, s := range v.Samples {
				lo, hi = min(lo, s), max(hi, s)
			}
			fmt.Fprintf(w, " median of %d, min %.6g max %.6g", n, lo, hi)
		}
		fmt.Fprintln(w)
	}
	if r.PerLayer == nil {
		return
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.Name, r.PerLayer[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(w, "  trace: %s (Chrome trace-event JSON; opens in Perfetto)\n", tracePath)
	printSelfTimes(w, r.spans)
}
