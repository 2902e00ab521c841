// Package reclaim lets a test watch the garbage collector reclaim the objects
// it tracks: a Counter sets a finalizer on each, and Reclaimed collects until
// they are all gone. A test that drops its last reference to data checks
// through it that nothing else still holds the data.
package reclaim

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Counter counts the tracked objects the collector has reclaimed.
type Counter struct{ freed atomic.Int64 }

// Track counts obj reclaimed when the collector frees it. obj must point to
// the start of a heap allocation larger than the tiny allocator's 16 bytes,
// whose batched objects finalize late or never, and carry no other finalizer.
func (c *Counter) Track(obj any) {
	runtime.SetFinalizer(obj, func(any) { c.freed.Add(1) })
}

// Freed returns the number of tracked objects reclaimed so far.
func (c *Counter) Freed() int64 { return c.freed.Load() }

// Reclaimed collects until n tracked objects are reclaimed, reporting false
// if they are not within 2 s.
func (c *Counter) Reclaimed(n int) bool {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		if c.Freed() == int64(n) {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}
