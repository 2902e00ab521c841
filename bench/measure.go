package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/vcf"
)

// runConfig is one benchmark run: one workload, one seed. Batch job, closed
// loop: one child at a time, each a fresh process.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // measure for this long (at least minReps repetitions) ...
	reps     int     // ... or, when > 0, exactly this many timed repetitions
	warmup   int     // discarded repetitions before the timed ones (page cache, first-touch)
	setups   int     // set-up repetitions (more while they are cheap); setup_s is their median
	trace    bool
	size     sizing
	slots    int    // W = min(nproc, 4) engine slots
	exe      string // this binary, re-exec'd as the child
	scratch  string // directory for generated inputs and outputs, removed afterwards
	traceOut string // Chrome trace-event file of the traced pass
}

const minReps = 3

// childTimeout kills a child that hangs, so a run always ends well inside the
// driver's 180 s; the slowest child (a traced wgs pass) takes about 8 s.
const childTimeout = 90 * time.Second

// cheapSetup is the total set-up time, in seconds, under which a run repeats
// its set-up three times as often: a 0.15 s set-up read three times is mostly
// scheduler noise.
const cheapSetup = 1.5

// metricValue is one reported number with its unit; timings carry the
// per-repetition samples they are the median of.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// runResult is the outcome of one run.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Attempted int                    `json:"ops_attempted"`
	Failed    int                    `json:"ops_failed"`
	Failures  []string               `json:"failures,omitempty"`
	Manifest  []fileInfo             `json:"manifest"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	spans     []span
}

func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// rep is one finished child.
type rep struct {
	wall   float64 // spawn -> DONE
	report childReport
	out    fileInfo
}

func (c *runConfig) childSpec(workload, dir, out string) childSpec {
	return childSpec{
		Workload: workload, Dir: dir, Out: out, Slots: c.slots,
		NumPartitions: c.size.NumPartitions, PartitionLen: c.size.PartitionLen,
	}
}

// spawn runs one child to completion. Wall is from just before the process is
// started until it prints DONE: inputs on disk to output file written.
func (c *runConfig) spawn(spec childSpec) (rep, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return rep{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, c.exe, "exec", string(raw))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return rep{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return rep{}, err
	}
	var r rep
	rd := bufio.NewReader(stdout)
	line, rerr := rd.ReadString('\n')
	r.wall = time.Since(start).Seconds()
	if rerr == nil && strings.TrimSpace(line) == "DONE" {
		rerr = json.NewDecoder(rd).Decode(&r.report)
	} else if rerr == nil {
		rerr = fmt.Errorf("child printed %q, want DONE", strings.TrimSpace(line))
	}
	_, _ = io.Copy(io.Discard, rd) // let the child finish writing before Wait closes the pipe
	if werr := cmd.Wait(); werr != nil {
		return rep{}, fmt.Errorf("child %s: %w", spec.Workload, werr)
	}
	if rerr != nil {
		return rep{}, fmt.Errorf("child %s: %w", spec.Workload, rerr)
	}
	if r.out, err = hashFile(spec.Out); err != nil {
		return rep{}, err
	}
	return r, nil
}

// run executes the whole run: set-up, repetitions, verification and, when
// asked, the traced pass.
func (c *runConfig) run() (*runResult, error) {
	res := &runResult{Workload: c.workload, Seed: c.seed, EndToEnd: map[string]metricValue{}}
	if err := os.MkdirAll(c.scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(c.scratch)

	// Set-up, repeated: the median is steadier than one sample, and the
	// repeats double as the determinism check (same seed, same hashes).
	dir := ""
	var setupTimes []float64
	n := c.setups
	for i := 0; i < n; i++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = filepath.Join(c.scratch, fmt.Sprintf("in%d", i))
		m, secs, err := c.setup(dir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if i > 0 && !reflect.DeepEqual(m, res.Manifest) {
			return nil, fmt.Errorf("setup: seed %d generated different inputs on repeat %d", c.seed, i)
		}
		res.Manifest = m
		setupTimes = append(setupTimes, secs)
		if i == 0 && n > 1 && secs*float64(n) < cheapSetup {
			n *= 3
		}
	}
	res.EndToEnd["setup_s"] = metricValue{Value: median(setupTimes), Unit: "s", Samples: setupTimes}

	// Repetitions: each a fresh process on the same files.
	out := filepath.Join(c.scratch, "out")
	var reps []rep
	var first *fileInfo // every repetition, warm-ups included, must write these bytes
	begin := time.Now()
	for i := 0; ; i++ {
		timed := i - c.warmup
		if c.reps > 0 && timed >= c.reps {
			break
		}
		if c.reps == 0 && timed >= minReps && time.Since(begin).Seconds() >= c.seconds {
			break
		}
		if timed == 0 {
			begin = time.Now()
		}
		res.Attempted++
		r, err := c.spawn(c.childSpec(c.workload, dir, out))
		if err != nil {
			res.fail("rep %d: %v", i, err)
			if res.Failed > 2 {
				return res, nil // a broken program fails every rep the same way
			}
			continue
		}
		if first == nil {
			first = &r.out
		} else if r.out.SHA256 != first.SHA256 {
			res.fail("rep %d: output differs from rep 0 (%s vs %s)", i, r.out.SHA256[:12], first.SHA256[:12])
		}
		if timed >= 0 {
			reps = append(reps, r)
		}
	}
	if len(reps) == 0 {
		return res, nil
	}
	var wall, cpu, heap []float64
	for _, r := range reps {
		wall, cpu, heap = append(wall, r.wall), append(cpu, r.report.CPUSec), append(heap, r.report.RetainedHeapMB)
	}
	res.EndToEnd["wall_s"] = metricValue{Value: median(wall), Unit: "s", Samples: wall}
	res.EndToEnd["cpu_s"] = metricValue{Value: median(cpu), Unit: "s", Samples: cpu}
	res.EndToEnd["retained_heap_mb"] = metricValue{Value: median(heap), Unit: "MB", Samples: heap}

	if err := c.verify(res, dir, out, *first); err != nil {
		return nil, err
	}
	if c.trace {
		if err := c.tracedPass(res, dir, median(wall)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// verify checks the output all repetitions agreed on and scores it against
// the truth set. Every workload ends in a precision and a recall: wgs and
// caller from their own VCF, the cleaner family from the calls the caller
// pipeline makes on the cleaned reads — what the cleaner is for.
func (c *runConfig) verify(res *runResult, dir, out string, sum fileInfo) error {
	callsPath := out
	if strings.HasPrefix(c.workload, "cleaner") {
		var recs, input []sam.Record
		err := openIn(out, func(f *os.File) (e error) { _, recs, e = sam.ReadText(f); return e })
		if err != nil {
			res.fail("output does not parse as SAM: %v", err)
			return nil
		}
		if err := openIn(filepath.Join(dir, "aligned.sam"), func(f *os.File) (e error) { _, input, e = sam.ReadText(f); return e }); err != nil {
			return err
		}
		dups := 0
		for i := range recs {
			if recs[i].Duplicate() {
				dups++
			}
		}
		if len(recs) != len(input) {
			res.fail("output has %d records, input %d", len(recs), len(input))
		}
		if dups == 0 {
			res.fail("no duplicates marked")
		}
		if c.workload != "cleaner" {
			// The three cleaner workloads must write the same bytes.
			ref, err := c.spawn(c.childSpec("cleaner", dir, filepath.Join(c.scratch, "ref.sam")))
			if err != nil {
				return fmt.Errorf("verify: reference cleaner: %w", err)
			}
			if ref.out.SHA256 != sum.SHA256 {
				res.fail("output differs from the in-process cleaner (%s vs %s)", sum.SHA256[:12], ref.out.SHA256[:12])
			}
		}
		spec := c.childSpec("caller", dir, filepath.Join(c.scratch, "verify.vcf"))
		spec.Input = out
		if _, err := c.spawn(spec); err != nil {
			res.fail("calling on the cleaned reads: %v", err)
			return nil
		}
		callsPath = spec.Out
	}
	var calls, truth []vcf.Record
	if err := openIn(callsPath, func(f *os.File) (e error) { _, calls, e = vcf.Read(f); return e }); err != nil {
		res.fail("calls do not parse as VCF: %v", err)
		return nil
	}
	if err := openIn(filepath.Join(dir, "truth.vcf"), func(f *os.File) (e error) { _, truth, e = vcf.Read(f); return e }); err != nil {
		return err
	}
	st := vcf.Compare(calls, truth, 2)
	res.EndToEnd["precision"] = metricValue{Value: st.Precision(), Unit: "ratio"}
	res.EndToEnd["recall"] = metricValue{Value: st.Recall(), Unit: "ratio"}
	if st.Precision() < c.size.PrecisionFloor || st.Recall() < c.size.RecallFloor {
		res.fail("precision %.4f / recall %.4f under the floors %.2f / %.2f",
			st.Precision(), st.Recall(), c.size.PrecisionFloor, c.size.RecallFloor)
	}
	return nil
}

// tracedPass runs one extra child with spans on and layers replayed.
func (c *runConfig) tracedPass(res *runResult, dir string, untracedWall float64) error {
	spec := c.childSpec(c.workload, dir, filepath.Join(c.scratch, "traced.out"))
	spec.TraceOut = c.traceOut
	res.Attempted++
	r, err := c.spawn(spec)
	if err != nil {
		res.fail("traced pass: %v", err)
		return nil
	}
	res.spans = r.report.Spans
	layers := r.report.Layers
	layers["trace.overhead_frac"] = r.wall/untracedWall - 1
	res.PerLayer = map[string]metricValue{}
	for _, d := range perLayer {
		res.PerLayer[d.Name] = metricValue{Value: layers[d.Name], Unit: d.Unit}
		delete(layers, d.Name)
	}
	if len(layers) > 0 {
		return fmt.Errorf("traced pass reported undeclared layer metrics %v", keys(layers))
	}
	return nil
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
