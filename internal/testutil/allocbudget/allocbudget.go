// Package allocbudget checks that a decoder's heap allocation is bounded by
// its input: a corrupt or hostile length must error, not allocate. Every
// decode fuzz target calls Check on every input, so the bound holds on each
// checked-in seed under plain go test and on every input a fuzzing run
// generates.
//
//	allocbudget.Check(t, len(data), perByte, slack, func() {
//		recs, err = codec.Unmarshal(data)
//	})
package allocbudget

import (
	"runtime"
	"testing"
)

// attempts bounds how often Check measures decode before it fails.
const attempts = 3

// Check fails t when decode allocates more than perByte·inputLen + slack
// heap bytes. It reads runtime.MemStats.TotalAlloc on both sides of decode,
// which counts every goroutine's allocations in that window; the fuzzing
// engine's own goroutines allocate a few kilobytes now and then. So a
// measurement over budget is taken again, up to attempts times, and the
// smallest one counts: decode must allocate the same on every run.
func Check(t testing.TB, inputLen, perByte, slack int, decode func()) {
	t.Helper()
	budget := uint64(perByte)*uint64(inputLen) + uint64(slack)
	least := ^uint64(0)
	for i := 0; i < attempts; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		if least <= budget {
			return
		}
	}
	t.Fatalf("allocbudget: decoding %d input bytes allocated %d heap bytes, over the budget %d·%d + %d = %d",
		inputLen, least, perByte, inputLen, slack, budget)
}
