package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"github.com/gpf-go/gpf/internal/engine/exec/mproc"
)

// The test binary stands in for the bench binary: it is what the runs below
// re-exec as children and as mproc worker ranks.
func TestMain(m *testing.M) {
	mproc.WorkerMaybe()
	if len(os.Args) > 1 && os.Args[1] == "exec" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestEveryWorkloadSmall runs every workload once at 20 kb / 6x with the
// traced pass and checks that each emits exactly the declared metrics and
// that no operation fails.
func TestEveryWorkloadSmall(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := runConfig{
				workload: w.Name, seed: 42, reps: 1, setups: 1, trace: true, size: testSizing,
				slots: 2, exe: exe, scratch: filepath.Join(t.TempDir(), "run"),
				traceOut: filepath.Join(t.TempDir(), "trace.json"),
			}
			res, err := cfg.run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted < 2 {
				t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Failures)
			}
			checkNames(t, "end_to_end", res.EndToEnd, endToEnd)
			checkNames(t, "per_layer", res.PerLayer, perLayer)
			for _, d := range endToEnd {
				if v := res.EndToEnd[d.Name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.Name, v)
				}
			}
			if len(res.Manifest) < 4 {
				t.Errorf("manifest has %d files", len(res.Manifest))
			}
			// Layers the workload never calls read zero; the one it is
			// built around does not.
			busy := map[string]string{"wgs": "align.task_share", "caller": "caller.task_share"}[w.Name]
			if busy == "" {
				busy = "cleaner.task_share"
			}
			if res.PerLayer[busy].Value <= 0 {
				t.Errorf("%s = 0 on %s", busy, w.Name)
			}
			if w.Name != "wgs" && res.PerLayer["align.task_share"].Value != 0 {
				t.Errorf("align.task_share = %v on %s, want 0", res.PerLayer["align.task_share"].Value, w.Name)
			}
			if (w.Name == "cleaner-mproc") != (res.PerLayer["mproc.run_share"].Value > 0) {
				t.Errorf("mproc.run_share = %v on %s", res.PerLayer["mproc.run_share"].Value, w.Name)
			}
			// No time may read zero anywhere: the replay measures every
			// module on every workload.
			for _, d := range perLayer {
				if (d.Unit == "s" || d.Unit == "us" || d.Unit == "ns" || d.Unit == "min") && !(res.PerLayer[d.Name].Value > 0) {
					t.Errorf("%s = %v on %s, want > 0", d.Name, res.PerLayer[d.Name].Value, w.Name)
				}
			}
			buf, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var chrome struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf, &chrome); err != nil || len(chrome.TraceEvents) != len(res.spans) || len(res.spans) < 5 {
				t.Errorf("trace file: %v, %d events for %d spans", err, len(chrome.TraceEvents), len(res.spans))
			}
		})
	}
}

func checkNames(t *testing.T, kind string, got map[string]metricValue, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, %d declared", kind, len(got), len(want))
	}
	for _, d := range want {
		v, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: %s not emitted", kind, d.Name)
		} else if v.Unit != d.Unit {
			t.Errorf("%s: %s has unit %q, declared %q", kind, d.Name, v.Unit, d.Unit)
		}
		if !nameRE.MatchString(d.Name) {
			t.Errorf("%s: bad metric name %q", kind, d.Name)
		}
	}
}

// TestBenchmarkJSONMatchesDefs keeps BENCHMARK.json and the program's tables
// the same list.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var wantW, wantE, wantL []entry
	for _, w := range workloads {
		wantW = append(wantW, entry{Name: w.Name, Why: w.Why})
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	for _, d := range endToEnd {
		wantE = append(wantE, entry{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		wantL = append(wantL, entry{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	if !reflect.DeepEqual(spec.Workloads, wantW) {
		t.Errorf("workloads differ:\n json %v\n defs %v", spec.Workloads, wantW)
	}
	if !reflect.DeepEqual(spec.EndToEnd, wantE) {
		t.Errorf("end_to_end differs:\n json %v\n defs %v", spec.EndToEnd, wantE)
	}
	if !reflect.DeepEqual(spec.PerLayer, wantL) {
		t.Errorf("per_layer differs:\n json %v\n defs %v", spec.PerLayer, wantL)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
}

func TestSeedFixesInputs(t *testing.T) {
	gen := func(seed int64) []fileInfo {
		m, err := genWGS(t.TempDir(), testSizing, seed)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seed 7 twice:\n%v\n%v", a, b)
	}
	// The sample (reference, known sites, truth) is pinned; the seed draws the reads.
	for i := range a {
		if reads := strings.HasPrefix(a[i].Name, "reads_"); reads == (a[i].SHA256 == c[i].SHA256) {
			t.Errorf("%s: seeds 7 and 8 hash the same = %v", a[i].Name, !reads)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 = quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(wall ...float64) *report {
		r := &report{}
		for _, w := range wall {
			r.Runs = append(r.Runs, &runResult{Workload: "wgs", EndToEnd: map[string]metricValue{"wall_s": {Value: w, Unit: "s"}}})
		}
		return r
	}
	for _, tc := range []struct {
		name     string
		old, cur *report
		verdict  string
		bad      bool
	}{
		{"steady", mk(1, 1.01, 0.99, 1), mk(1.02, 1, 1.01, 0.99), " ok", false},
		{"slower", mk(1, 1.01, 0.99, 1), mk(1.4, 1.41, 1.39, 1.4), "REGRESSION", true},
		{"noisy", mk(1, 1.5, 0.5, 1), mk(1.02, 1.5, 0.5, 1), "unresolved", false},
		{"noisy but all better", mk(1, 1.5, 0.8, 1), mk(0.5, 0.7, 0.3, 0.6), " ok", false},
	} {
		var out bytes.Buffer
		if bad := compare(tc.old, tc.cur, &out); bad != tc.bad || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: regressed=%v, output:\n%s", tc.name, bad, out.String())
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "run", Start: 0, End: 10, ID: 0, Parent: -1},
		{Name: "sam.ReadText", Start: 1, End: 4, ID: 1, Parent: 0},
		{Name: "sam.WriteText", Start: 5, End: 7, ID: 2, Parent: 0},
	}
	for _, r := range selfTimes(spans) {
		want := map[string]float64{"run": 5, "sam": 5}[r.Layer]
		if math.Abs(r.Self-want) > 1e-9 {
			t.Errorf("%s self = %v, want %v", r.Layer, r.Self, want)
		}
	}
}
