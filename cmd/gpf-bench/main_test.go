package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"github.com/gpf-go/gpf/internal/experiments"
)

func TestRunnersCoverEveryExperiment(t *testing.T) {
	want := map[string]bool{
		"table1": false, "fig5": false, "table3": false, "table4": false,
		"fig10": false, "fig11": false, "fig12": false, "fig13": false, "table5": false,
		"scaling": false, "wgs": false,
	}
	for _, r := range runners() {
		if _, ok := want[r.id]; !ok {
			t.Fatalf("unexpected runner %q", r.id)
		}
		want[r.id] = true
		if r.doc == "" {
			t.Fatalf("runner %q lacks documentation", r.id)
		}
	}
	for id, seen := range want {
		if !seen {
			t.Fatalf("experiment %s has no runner", id)
		}
	}
	// The -exp usage text names every runner id once, then "all", and nothing
	// else.
	list := strings.TrimSuffix(strings.TrimPrefix(expUsage(), "experiment id ("), ")")
	ids := strings.Split(list, "|")
	if len(ids) != len(want)+1 || ids[len(ids)-1] != "all" {
		t.Fatalf("usage lists %v, want the %d runner ids then \"all\"", ids, len(want))
	}
	for _, id := range ids[:len(ids)-1] {
		if !want[id] {
			t.Fatalf("usage names %q: no such runner, or named twice", id)
		}
		want[id] = false
	}
}

func TestRunnerExecutes(t *testing.T) {
	// fig5 is the cheapest runner; execute it end to end.
	for _, r := range runners() {
		if r.id != "fig5" {
			continue
		}
		lines, err := r.fn(experiments.NewRuns(experiments.SmallScale()))
		if err != nil {
			t.Fatal(err)
		}
		if len(lines) == 0 {
			t.Fatal("no output lines")
		}
	}
}

// TestUnknownScaleExits runs the command with a misspelt -scale: it must exit
// non-zero and name the scale instead of running the small one. The test
// re-executes its own binary as the command.
func TestUnknownScaleExits(t *testing.T) {
	if os.Getenv("GPF_BENCH_TEST_MAIN") == "1" {
		os.Args = []string{"gpf-bench", "-scale", "defualt", "-exp", "fig5"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownScaleExits$")
	cmd.Env = append(os.Environ(), "GPF_BENCH_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("-scale defualt: err %v, want a non-zero exit; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), `unknown scale "defualt"`) {
		t.Fatalf("-scale defualt: output does not name the scale:\n%s", out)
	}
	for _, name := range []string{"small", "default"} {
		if _, err := scaleNamed(name); err != nil {
			t.Fatalf("scale %q: %v", name, err)
		}
	}
}
