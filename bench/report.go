package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// header says what machine, toolchain and inputs a report's numbers belong to.
type header struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Slots      int    `json:"engine_slots"`
	Seed       int64  `json:"seed"`
	Sizing     sizing `json:"input_sizes"`
}

func newHeader(cfg runConfig, seed int64) header {
	h := header{
		GitSHA: "unknown", GoVersion: runtime.Version(), CPUModel: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Slots: cfg.slots, Seed: seed, Sizing: cfg.size,
	}
	// The driver's checkout is not a git repository; the SHA is best effort.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// report is what -out writes and -cmp reads: one entry per run.
type report struct {
	Header header       `json:"header"`
	Runs   []*runResult `json:"runs"`
}

func (r *report) failedOps() int {
	n := 0
	for _, run := range r.Runs {
		n += run.Failed
	}
	return n
}

func (r *report) write(path string) error {
	buf, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

func readReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// values collects one end-to-end metric of one workload over a report's runs.
func (r *report) values(workload, metric string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if v, ok := run.EndToEnd[metric]; ok && run.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(v, n=4) does
// (the exclusive method), which is what the benchmark driver computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cur, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	for _, r := range []struct {
		side string
		h    header
	}{{"old", old.Header}, {"new", cur.Header}} {
		fmt.Fprintf(stdout, "%s: %s %s (%s, nproc %d)\n", r.side, r.h.GitSHA, r.h.GoVersion, r.h.CPUModel, r.h.NumCPU)
	}
	if compare(old, cur, stdout) {
		return 1
	}
	return 0
}

// compare prints, per workload and end-to-end metric, how much worse the new
// median is than the old against the metric's bound, and reports whether any
// pairing regressed. A pairing within the bound whose run-to-run spread
// (distance between quartiles over the median) is wider than the bound on
// either side is "unresolved", not "ok" — unless every new run reads better
// than every old run.
func compare(old, cur *report, w io.Writer) (regressed bool) {
	fmt.Fprintf(w, "%-14s %-17s %12s %12s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "old median", "new median", "worse", "bound", "spread0", "spread1", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a, b := old.values(wl.Name, d.Name), cur.values(wl.Name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma // share of the old median by which the new one is worse
			if d.Better == "higher" {
				worse = -worse
			}
			spread := func(v []float64) float64 {
				q1, q3 := quartiles(v)
				return (q3 - q1) / median(v)
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "REGRESSION"
				regressed = true
			case (sa > d.Bound || sb > d.Bound) && !allBetter(a, b, d.Better):
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-14s %-17s %12.6g %12.6g %+7.2f%% %6.1f%% %7.2f%% %7.2f%%  %s\n",
				wl.Name, d.Name, ma, mb, 100*worse, 100*d.Bound, 100*sa, 100*sb, verdict)
		}
	}
	return regressed
}

// allBetter reports whether every value of b reads better than every value of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
