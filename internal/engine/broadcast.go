package engine

import "time"

// Broadcast distributes a driver value to every worker. In the real cluster
// this ships sizeBytes to each node; locally the value is shared, but the
// serial driver time and the byte volume are recorded so the simulator can
// charge the broadcast cost (the multi-gigabyte BQSR mask table broadcast of
// §5.2.2 shows up as a serial step through this accounting).
type Broadcast[T any] struct {
	Value     T
	SizeBytes int64
}

// NewBroadcast registers a broadcast variable with the context, recording a
// driver-side action stage with the broadcast volume.
func NewBroadcast[T any](ctx *Context, name string, value T, sizeBytes int64) *Broadcast[T] {
	start := time.Now()
	b := &Broadcast[T]{Value: value, SizeBytes: sizeBytes}
	ctx.recordStage(StageMetrics{
		Name:       name,
		Kind:       StageAction,
		DriverTime: time.Since(start),
		HeapBytes:  readHeapBytes(),
		Tasks: []TaskMetrics{{
			Partition:         0,
			ShuffleWriteBytes: sizeBytes,
		}},
	})
	return b
}
