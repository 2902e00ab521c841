// Fixture for gpflint/sharedcapture: writes to captured variables inside
// engine op funcs are races; closure-local state and plain reads are fine.
package sharedcapture

import (
	"sort"

	"github.com/gpf-go/gpf/internal/engine"
)

func positives(ctx *engine.Context, d *engine.Dataset[int]) {
	counter := 0
	_, _ = engine.Map("inc", d, nil, func(v int) int {
		counter++ // want "assignment to variable \"counter\" captured from enclosing scope"
		return v
	})

	var seen []int
	_, _ = engine.Filter("collect", d, func(v int) bool {
		seen = append(seen, v) // want "assignment to variable \"seen\" captured"
		return true
	})

	hits := map[int]int{}
	_, _ = engine.PartitionBy("route", d, 4, func(v int) int {
		hits[v]++ // want "map write to variable \"hits\" captured"
		return v
	})

	total := new(int)
	_, _ = engine.MapPartitions("deref", d, nil, func(_ int, items []int) ([]int, error) {
		*total = len(items) // want "write through pointer \"total\" captured"
		return items, nil
	})

	type state struct{ n int }
	st := &state{}
	_, _ = engine.FlatMap("field", d, nil, func(v int) []int {
		st.n = v // want "field write on variable \"st\" captured"
		return nil
	})

	_, _, _ = engine.Reduce("fold", d, func(a, b int) int {
		counter = a + b // want "assignment to variable \"counter\" captured"
		return a + b
	})
}

func negatives(ctx *engine.Context, d *engine.Dataset[int], parts [][]int) {
	// Closure-local state is task-private.
	_, _ = engine.MapPartitions("local", d, nil, func(_ int, items []int) ([]int, error) {
		count := 0
		for range items {
			count++
		}
		return items[:count], nil
	})

	// Reading captured state (broadcast pattern) is the intended idiom.
	threshold := 10
	_, _ = engine.Filter("read", d, func(v int) bool { return v < threshold })

	// Disjoint per-partition slice element writes are the engine's own
	// partition-output idiom.
	_, _ = engine.MapPartitions("slot", d, nil, func(p int, items []int) ([]int, error) {
		parts[p] = items
		return items, nil
	})

	// Captured writes outside engine ops (an ordinary sequential closure)
	// are not this analyzer's business.
	order := []int{3, 1, 2}
	swaps := 0
	sort.Slice(order, func(i, j int) bool {
		swaps++
		return order[i] < order[j]
	})

	// Suppression: the author vouches for the synchronization.
	var guarded int
	//lint:ignore gpflint/sharedcapture fixture exercises the suppression path
	_, _ = engine.Map("suppressed", d, nil, func(v int) int { guarded = v; return v })
	_ = guarded
	_ = swaps
}

// censusPositives: CountByKey's key closure runs once per item inside every
// census task across the worker pool, so captured writes in it race exactly
// like Map op funcs.
func censusPositives(d *engine.Dataset[int]) {
	seen := map[int]bool{}
	keys := 0
	_, _ = engine.CountByKey("census", d, func(v int) int {
		seen[v] = true // want "map write to variable \"seen\" captured"
		keys++         // want "assignment to variable \"keys\" captured"
		return v
	})
}

// censusNegatives: a pure key closure, reading captured state, stays quiet.
func censusNegatives(d *engine.Dataset[int], buckets int) {
	_, _ = engine.CountByKey("census-ok", d, func(v int) int { return v % buckets })
}
