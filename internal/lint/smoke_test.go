package lint_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot walks up from the test's working directory to the directory
// containing go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

func runGpflint(t *testing.T, root string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "./cmd/gpflint"}, args...)...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	exitErr, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("go run ./cmd/gpflint %v: %v\n%s", args, err, out)
	}
	return string(out), exitErr.ExitCode()
}

// TestSweepClean is the acceptance gate: the full repo must be free of
// gpflint diagnostics (suppressed or fixed), so the binary exits 0.
func TestSweepClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping repo-wide sweep in -short mode")
	}
	root := moduleRoot(t)
	out, code := runGpflint(t, root, "./...")
	if code != 0 {
		t.Fatalf("gpflint ./... exited %d; want 0\n%s", code, out)
	}
}

// TestSweepCatchesRepartitionRace asserts the companion acceptance
// criterion: gpflint exits non-zero on the seeded fixture reproducing the
// PR 1 Repartition shared-counter race, and attributes the finding to the
// sharedcapture analyzer.
func TestSweepCatchesRepartitionRace(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping gpflint subprocess test in -short mode")
	}
	root := moduleRoot(t)
	fixture := filepath.Join("internal", "lint", "testdata", "racefixture", "fixture.go")
	out, code := runGpflint(t, root, fixture)
	if code != 1 {
		t.Fatalf("gpflint %s exited %d; want 1\n%s", fixture, code, out)
	}
	if !strings.Contains(out, "gpflint/sharedcapture") {
		t.Fatalf("diagnostic not attributed to gpflint/sharedcapture:\n%s", out)
	}
	if !strings.Contains(out, "next") {
		t.Fatalf("diagnostic does not name the captured variable:\n%s", out)
	}
}
