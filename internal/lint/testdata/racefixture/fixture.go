// Package racefixture reproduces the shared-counter data race that PR 1
// fixed in engine.Repartition: a route callback capturing and mutating a
// counter from the enclosing scope. Route callbacks run concurrently across
// map tasks, so `next++` races — and worse, even with atomics the routing
// would depend on task scheduling order, breaking reproducibility. The smoke
// test asserts that `gpflint` exits non-zero on this file; the fix derived the
// destination purely from (partition, index), and the op itself has since
// been deleted for want of callers.
package racefixture

import "github.com/gpf-go/gpf/internal/engine"

// LeakyRepartition is the pre-PR-1 Repartition shape: DO NOT use; it exists
// to keep the analyzer honest.
func LeakyRepartition(d *engine.Dataset[int], numPartitions int) (*engine.Dataset[int], error) {
	next := 0
	return engine.PartitionBy("repartition", d, numPartitions, func(int) int {
		next++
		return next
	})
}
