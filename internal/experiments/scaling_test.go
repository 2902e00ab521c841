package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"github.com/gpf-go/gpf/internal/baseline"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/engine/exec/mproc"
	"github.com/gpf-go/gpf/internal/workload"
)

// TestMain lets this test binary double as the forked mproc worker.
func TestMain(m *testing.M) {
	mproc.WorkerMaybe()
	os.Exit(m.Run())
}

// scalingTestScale is SmallScale, shrunk further under the race detector so
// the instrumented multi-process WGS runs stay fast (see race_on_test.go).
func scalingTestScale() Scale {
	s := SmallScale()
	if raceEnabled {
		s.GenomeLen = 10000
		s.Coverage = 5
		s.PartitionLen = 2500
	}
	return s
}

func scalingTestSpec() ScalingSpec {
	s := scalingTestScale()
	s.NumPartitions = 6
	return ScalingSpec{Scale: s, Opts: baseline.GPFOptions()}
}

// TestScalingWGSByteIdentityAcrossBackends: the full WGS pipeline must emit
// byte-identical VCF text on both executor backends, the multi-process one at
// several process counts.
func TestScalingWGSByteIdentityAcrossBackends(t *testing.T) {
	sp := scalingTestSpec()
	_, ref, err := driveWGS(engine.NewContext(2), workload.WGS, sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 || !bytes.HasPrefix(ref, []byte("##fileformat")) {
		t.Fatalf("reference output is not a VCF (%d bytes)", len(ref))
	}
	spec, err := EncodeScalingSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	procsList := []int{1, 2, 3}
	if raceEnabled {
		procsList = []int{2}
	}
	for _, procs := range procsList {
		r, err := mproc.Run(ScalingJobName, spec, mproc.Options{Procs: procs, Slots: 2})
		if err != nil {
			t.Fatalf("mproc procs=%d: %v", procs, err)
		}
		if !bytes.Equal(r.Output, ref) {
			t.Fatalf("mproc procs=%d VCF differs from inproc reference", procs)
		}
	}
}

// TestScalingWGSInjectedWorkerError: a map failure on a worker-owned
// partition must surface as a clean error on every backend, and a subsequent
// clean run must still produce the reference bytes (no poisoned state).
func TestScalingWGSInjectedWorkerError(t *testing.T) {
	if _, err := mproc.Run(ScalingJobName, []byte("not gob"), mproc.Options{Procs: 2, Slots: 2}); err == nil ||
		!strings.Contains(err.Error(), "decode spec") {
		t.Fatalf("mproc: want the spec decode error, got %v", err)
	}
	sp := scalingTestSpec()
	sp.InjectMapError = true
	if _, _, err := driveWGS(engine.NewContext(2), workload.WGS, sp); err == nil ||
		!strings.Contains(err.Error(), "injected worker-side map failure") {
		t.Fatalf("inproc: want injected failure, got %v", err)
	}
	spec, err := EncodeScalingSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mproc.Run(ScalingJobName, spec, mproc.Options{Procs: 2, Slots: 2}); err == nil ||
		!strings.Contains(err.Error(), "injected worker-side map failure") {
		t.Fatalf("mproc: want injected failure, got %v", err)
	}
	sp.InjectMapError = false
	_, ref, err := driveWGS(engine.NewContext(2), workload.WGS, sp)
	if err != nil {
		t.Fatal(err)
	}
	spec, err = EncodeScalingSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	r, err := mproc.Run(ScalingJobName, spec, mproc.Options{Procs: 2, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Output, ref) {
		t.Fatal("post-failure rerun output differs from reference")
	}
}

// TestScalingExperimentShape runs the scaling experiment at a short process
// list and checks the table wiring: identical outputs, populated predictions
// and metrics at every point.
func TestScalingExperimentShape(t *testing.T) {
	if raceEnabled {
		t.Skip("full-scale experiment runs in the plain pass; transport concurrency is race-tested in engine/exec/mproc")
	}
	s := SmallScale()
	res, err := ScalingAt(s, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points", len(res.Points))
	}
	for _, p := range res.Points {
		if !p.Identical {
			t.Fatalf("W=%d output not identical to W=1", p.Procs)
		}
		if p.Measured <= 0 || p.Predicted <= 0 {
			t.Fatalf("W=%d missing timings: measured=%v predicted=%v", p.Procs, p.Measured, p.Predicted)
		}
		if p.ShuffleBytes <= 0 {
			t.Fatalf("W=%d shuffle bytes not recorded", p.Procs)
		}
	}
	if lines := res.Format(); len(lines) != 4 {
		t.Fatalf("Format() returned %d lines", len(lines))
	}
}

// TestRunWGSOnBackends smoke-tests the CLI entry for each backend name: only
// the in-process run prints the oracle's predicted curve, and the retired
// "sim" name is unknown.
func TestRunWGSOnBackends(t *testing.T) {
	runs := smallRuns
	if raceEnabled {
		runs = NewRuns(scalingTestScale())
	}
	for _, backend := range []string{"inproc", "mproc"} {
		lines, err := RunWGSOn(runs, backend, 2)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if len(lines) == 0 || !strings.Contains(lines[0], "backend="+backend) {
			t.Fatalf("%s: bad header %q", backend, lines)
		}
		oracle := strings.Contains(strings.Join(lines, "\n"), "oracle W=")
		if oracle != (backend == "inproc") {
			t.Fatalf("%s: oracle rows printed = %v", backend, oracle)
		}
	}
	for _, backend := range []string{"sim", "bogus"} {
		if _, err := RunWGSOn(runs, backend, 2); err == nil {
			t.Fatalf("unknown backend %q accepted", backend)
		}
	}
}
