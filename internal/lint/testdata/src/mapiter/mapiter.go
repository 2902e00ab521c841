// Fixture for gpflint/mapiter: map iteration feeding order-dependent output
// in the engine/codec/simulator packages. Loaded under a package path inside
// internal/engine so the scope filter applies.
package mapiter

import (
	"sort"
	"strings"
)

func positives(m map[string]int, ch chan string, sb *strings.Builder) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want "\"out\" accumulates in map iteration order"
	}

	line := ""
	for k := range m {
		line += k // want "\"line\" accumulates in map iteration order"
	}

	for k := range m {
		ch <- k // want "send on channel inside map iteration"
	}

	for k := range m {
		sb.WriteString(k) // want "WriteString call inside map iteration"
	}
	return out
}

func negatives(m map[string]int) ([]string, int, map[string]int) {
	// Collect-keys-then-sort is the sanctioned determinization idiom.
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// Numeric reduction commutes.
	sum := 0
	for _, v := range m {
		sum += v
	}

	// Map-to-map accumulation is order-independent.
	copied := map[string]int{}
	for k, v := range m {
		copied[k] = v
	}

	// Ranging over a slice is always ordered.
	var ordered []string
	for _, k := range keys {
		ordered = append(ordered, k)
	}

	// Suppression with a reason.
	var unsorted []string
	for k := range m {
		//lint:ignore gpflint/mapiter fixture exercises the suppression path
		unsorted = append(unsorted, k)
	}
	_ = unsorted
	return ordered, sum, copied
}

// keyed mirrors the engine's Keyed pair, a census task's output.
type keyed struct {
	Key int
	Val int
}

// combinerPositives: emitting census pairs straight out of a count map
// makes the blocks they are encoded into byte-nondeterministic per run.
func combinerPositives(acc map[int]int, notify chan int) []keyed {
	var pairs []keyed
	for k, v := range acc {
		pairs = append(pairs, keyed{Key: k, Val: v}) // want "\"pairs\" accumulates in map iteration order"
	}

	// Publishing per-bucket readiness while iterating an accumulator map:
	// downstream reduce tasks would observe a random arrival order per run
	// even for identical inputs.
	for k := range acc {
		notify <- k // want "send on channel inside map iteration"
	}
	return pairs
}

// combinerNegatives: the pipelined shuffle's own idioms must stay quiet.
func combinerNegatives(acc map[int]int, notify []chan int, m int) []keyed {
	// The engine's sortedPairs shape: collect keys, sort, then emit pairs by
	// ranging the sorted slice.
	keys := make([]int, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	pairs := make([]keyed, 0, len(keys))
	for _, k := range keys {
		pairs = append(pairs, keyed{Key: k, Val: acc[k]})
	}

	// The map task's publish loop ranges a SLICE of per-reduce channels —
	// deterministic order, not a map iteration.
	for r := range notify {
		notify[r] <- m
	}
	return pairs
}
