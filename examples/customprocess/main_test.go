package main

import "testing"

// TestExampleRuns runs the example end to end, so `go test -race` runs its
// user-defined op funcs concurrently on the example's four task slots.
func TestExampleRuns(t *testing.T) { main() }
