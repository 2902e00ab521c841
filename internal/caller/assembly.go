package caller

import (
	"slices"
	"sort"
)

// Local de Bruijn assembly: candidate haplotypes for an active region are
// paths through the k-mer graph built from the spanning reads plus the
// reference backbone, anchored at the first and last reference k-mers.

// dbgEdge is one outgoing edge of a k-mer node.
type dbgEdge struct {
	next    uint64
	base    byte
	support int
}

// maxK is the longest k-mer a uint64 holds at two bits per base.
const maxK = 32

// kmerBits maps A, C, G and T to their 2-bit codes and every other byte,
// lowercase bases included, to -1: a k-mer holding one is not counted.
var kmerBits = func() (t [256]int8) {
	for i := range t {
		t[i] = -1
	}
	t['A'], t['C'], t['G'], t['T'] = 0, 1, 2, 3
	return
}()

// forEachKmer calls fn with the 2-bit code of every k-mer of seq made of A,
// C, G and T only, left to right: one rolling code and a count of the ACGT
// bases since the last other byte.
func forEachKmer(seq []byte, k int, fn func(km uint64)) {
	mask := uint64(1)<<(2*k) - 1
	var code uint64
	run := 0
	for _, b := range seq {
		c := kmerBits[b]
		if c < 0 {
			run = 0
			continue
		}
		code = (code<<2 | uint64(c)) & mask
		if run++; run >= k {
			fn(code)
		}
	}
}

// kmerCode returns the code of seq's first k bases, which must be ACGT.
func kmerCode(seq []byte, k int) uint64 {
	var code uint64
	for _, b := range seq[:k] {
		code = code<<2 | uint64(kmerBits[b])
	}
	return code
}

// assembleHaplotypes builds the graph from refWindow and reads and
// enumerates up to maxH haplotypes (always including the reference window).
// minSupport prunes read-only k-mers seen fewer times. K-mers are keyed by
// their 2-bit codes, so k must lie in 4..32; outside it, or when refWindow
// holds a base other than A, C, G and T, the reference window is returned
// alone.
func assembleHaplotypes(refWindow []byte, reads [][]byte, k, maxH, minSupport int) [][]byte {
	haps := [][]byte{refWindow}
	if len(refWindow) <= k || k < 4 || k > maxK || hasN(refWindow) {
		return haps
	}
	mask := uint64(1)<<(2*k) - 1
	// Count k-mers.
	support := make(map[uint64]int, 2*len(refWindow))
	for _, r := range reads {
		forEachKmer(r, k, func(km uint64) { support[km]++ })
	}
	// Reference k-mers always survive pruning.
	refKmers := make(map[uint64]bool, len(refWindow))
	forEachKmer(refWindow, k, func(km uint64) {
		refKmers[km] = true
		if support[km] == 0 {
			support[km] = 1
		}
	})
	// Prune weakly supported non-reference k-mers.
	for km, s := range support {
		if s < minSupport && !refKmers[km] {
			delete(support, km)
		}
	}
	// Adjacency.
	adj := make(map[uint64][]dbgEdge, len(support))
	for km := range support {
		prefix := km << 2 & mask
		for c := uint64(0); c < 4; c++ {
			if s, ok := support[prefix|c]; ok {
				adj[km] = append(adj[km], dbgEdge{next: prefix | c, base: "ACGT"[c], support: s})
			}
		}
	}
	// Deterministic edge order: highest support first, then base.
	for _, edges := range adj {
		slices.SortFunc(edges, func(a, b dbgEdge) int {
			if a.support != b.support {
				return b.support - a.support
			}
			return int(a.base) - int(b.base)
		})
	}

	source := kmerCode(refWindow, k)
	sink := kmerCode(refWindow[len(refWindow)-k:], k)
	if _, ok := support[source]; !ok {
		return haps
	}
	maxLen := len(refWindow) + 60

	// Bounded DFS from source to sink.
	var paths [][]byte
	var walk func(cur uint64, acc []byte, visited map[uint64]int)
	walk = func(cur uint64, acc []byte, visited map[uint64]int) {
		if len(paths) >= maxH*4 || len(acc) > maxLen {
			return
		}
		if cur == sink && len(acc) >= len(refWindow)-60 {
			paths = append(paths, append([]byte(nil), acc...))
			// Continue: the sink k-mer may recur, but bounded depth stops us.
		}
		if visited[cur] >= 2 { // allow one revisit for short tandem loops
			return
		}
		visited[cur]++
		for _, e := range adj[cur] {
			walk(e.next, append(acc, e.base), visited)
		}
		visited[cur]--
	}
	walk(source, append([]byte(nil), refWindow[:k]...), map[uint64]int{})

	// Score paths by summed k-mer support, keep the best non-reference ones.
	type scored struct {
		seq   []byte
		score int
	}
	var cands []scored
	seen := map[string]bool{string(refWindow): true}
	for _, p := range paths {
		if seen[string(p)] {
			continue
		}
		seen[string(p)] = true
		s := 0
		forEachKmer(p, k, func(km uint64) { s += support[km] })
		cands = append(cands, scored{seq: p, score: s})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return string(cands[i].seq) < string(cands[j].seq)
	})
	for _, c := range cands {
		if len(haps) >= maxH {
			break
		}
		haps = append(haps, c.seq)
	}
	return haps
}

func hasN(seq []byte) bool {
	for _, b := range seq {
		switch b {
		case 'A', 'C', 'G', 'T':
		default:
			return true
		}
	}
	return false
}
