package engine

import (
	"math"
	"runtime/metrics"
	"time"
)

// gcPauseMetric is the runtime/metrics histogram of stop-the-world GC pause
// latencies. It exists from Go 1.22 (go.mod says 1.23) and supersedes the
// deprecated /gc/pauses:seconds.
const gcPauseMetric = "/sched/pauses/total/gc:seconds"

// readGCPauseHist samples the GC pause histogram. Unlike the former
// runtime.ReadMemStats implementation this does not itself stop the world,
// so bracketing every stage with it is cheap.
func readGCPauseHist() *metrics.Float64Histogram {
	s := []metrics.Sample{{Name: gcPauseMetric}}
	metrics.Read(s)
	return s[0].Value.Float64Histogram()
}

// gcPauseHistDelta estimates total pause time accrued between two samples of
// the pause histogram: for each bucket, the count delta times the bucket
// midpoint. Bucket boundaries are fixed per metric, so the two samples align
// index-for-index.
func gcPauseHistDelta(before, after *metrics.Float64Histogram) time.Duration {
	if before == nil || after == nil || len(after.Counts) != len(before.Counts) {
		return 0
	}
	var seconds float64
	for i, c := range after.Counts {
		delta := c - before.Counts[i]
		if delta == 0 {
			continue
		}
		lo, hi := after.Buckets[i], after.Buckets[i+1]
		var mid float64
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		default:
			mid = (lo + hi) / 2
		}
		seconds += float64(delta) * mid
	}
	return time.Duration(seconds * float64(time.Second))
}

// gcPauseDelta measures GC pause time accrued while fn runs (driver-wide,
// attributed to the stage that triggered it).
func gcPauseDelta(fn func()) time.Duration {
	before := readGCPauseHist()
	fn()
	return gcPauseHistDelta(before, readGCPauseHist())
}

// heapObjectsMetric is the runtime/metrics gauge of heap memory occupied by
// objects: live ones plus dead ones the collector has not yet freed.
const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

// readHeapBytes samples the heap-objects gauge. Like the pause histogram it
// neither stops the world nor forces a collection, so it reads what the heap
// holds at the moment of the call, garbage not yet swept included.
func readHeapBytes() int64 {
	s := []metrics.Sample{{Name: heapObjectsMetric}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}
