package main

import (
	"strings"
	"testing"
)

// TestExampleRuns runs the example end to end, so `go test -race` runs its
// user-defined op funcs concurrently on the example's four task slots, and
// checks that the aligner runs in exactly one stage: the count and the
// pass-through share one materialized input.
func TestExampleRuns(t *testing.T) {
	eng, err := run()
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, s := range eng.Metrics().Stages {
		if strings.Contains(s.Name, "bwa-mem") {
			rows = append(rows, s.Name)
		}
	}
	if len(rows) != 1 {
		t.Fatalf("stage rows running bwa-mem: %q, want exactly one", rows)
	}
}
