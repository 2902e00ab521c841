package caller

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/gpf-go/gpf/internal/genome"
)

// stringEdge is one outgoing edge of a string-keyed k-mer node.
type stringEdge struct {
	next    string
	base    byte
	support int
}

// assembleHaplotypesStrings is the reference assembler: the same graph and
// walk as assembleHaplotypes with every k-mer a string key, each window
// rescanned for N. It was the caller's assembler before the 2-bit k-mer
// codes and stays as the oracle they must equal.
func assembleHaplotypesStrings(refWindow []byte, reads [][]byte, k, maxH, minSupport int) [][]byte {
	haps := [][]byte{refWindow}
	if len(refWindow) <= k || k < 4 {
		return haps
	}
	// Count k-mers.
	support := map[string]int{}
	addKmers := func(seq []byte, weight int) {
		for i := 0; i+k <= len(seq); i++ {
			km := seq[i : i+k]
			if hasN(km) {
				continue
			}
			support[string(km)] += weight
		}
	}
	for _, r := range reads {
		addKmers(r, 1)
	}
	// Reference k-mers always survive pruning.
	refKmers := map[string]bool{}
	for i := 0; i+k <= len(refWindow); i++ {
		km := string(refWindow[i : i+k])
		refKmers[km] = true
		if support[km] == 0 {
			support[km] = 1
		}
	}
	// Prune weakly supported non-reference k-mers.
	for km, s := range support {
		if s < minSupport && !refKmers[km] {
			delete(support, km)
		}
	}
	// Adjacency.
	adj := map[string][]stringEdge{}
	for km := range support {
		prefix := km[1:]
		for _, b := range []byte("ACGT") {
			next := prefix + string(b)
			if s, ok := support[next]; ok {
				adj[km] = append(adj[km], stringEdge{next: next, base: b, support: s})
			}
		}
	}
	// Deterministic edge order: highest support first, then base.
	for km := range adj {
		edges := adj[km]
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].support != edges[j].support {
				return edges[i].support > edges[j].support
			}
			return edges[i].base < edges[j].base
		})
	}

	source := string(refWindow[:k])
	sink := string(refWindow[len(refWindow)-k:])
	if _, ok := support[source]; !ok {
		return haps
	}
	maxLen := len(refWindow) + 60

	// Bounded DFS from source to sink.
	var paths [][]byte
	var walk func(cur string, acc []byte, visited map[string]int)
	walk = func(cur string, acc []byte, visited map[string]int) {
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
	walk(source, append([]byte(nil), source...), map[string]int{})

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
		for i := 0; i+k <= len(p); i++ {
			s += support[string(p[i:i+k])]
		}
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

// TestKernelAssembleHaplotypesOracle: the 2-bit k-mer assembler returns the
// string-keyed oracle's haplotype list, in order, on windows with variant
// reads, reads holding N or lowercase bases, reads shorter than k, and k at
// both ends of its range; past the range, or on a window holding N, it
// returns the reference alone.
func TestKernelAssembleHaplotypesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	randomSeq := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = "ACGT"[rng.Intn(4)]
		}
		return out
	}
	// variantReads tiles reads over window, over copies of it carrying an
	// SNV, an insertion or a deletion and over one masked by an N, then
	// damages some of them.
	variantReads := func(window []byte, readLen int) [][]byte {
		var haps [][]byte
		for v := 0; v < 3; v++ {
			alt := slices.Clone(window)
			at := 1 + rng.Intn(len(alt)-2)
			switch rng.Intn(3) {
			case 0:
				alt[at] = substituteBase(alt[at])
			case 1:
				alt = slices.Insert(alt, at, randomSeq(1+rng.Intn(4))...)
			case 2:
				alt = slices.Delete(alt, at, min(at+1+rng.Intn(4), len(alt)-1))
			}
			haps = append(haps, alt)
		}
		// A haplotype read with an N in the same place by every read of it.
		masked := slices.Clone(window)
		masked[rng.Intn(len(masked))] = 'N'
		haps = append(haps, window, masked)
		var reads [][]byte
		for _, h := range haps {
			for i := 0; i < len(h); i += 1 + rng.Intn(readLen/3+1) {
				r := slices.Clone(h[i:min(i+readLen, len(h))])
				switch rng.Intn(8) {
				case 0:
					r[rng.Intn(len(r))] = 'N'
				case 1:
					r[rng.Intn(len(r))] |= 0x20 // one lowercase base
				case 2:
					r = bytes.ToLower(r)
				case 3:
					r = r[:min(len(r), 1+rng.Intn(8))] // likely shorter than k
				}
				reads = append(reads, r)
			}
		}
		return reads
	}
	check := func(tag string, window []byte, reads [][]byte, k, minSupport int) {
		t.Helper()
		got := assembleHaplotypes(window, reads, k, 8, minSupport)
		want := assembleHaplotypesStrings(window, reads, k, 8, minSupport)
		if len(got) != len(want) {
			t.Fatalf("%s (k=%d): %d haplotypes, oracle %d", tag, k, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s (k=%d): haplotype %d is %s, oracle %s", tag, k, i, got[i], want[i])
			}
		}
	}
	ref := genome.Synthesize(genome.DefaultSynthConfig(73, 20000, 1)).Contigs[0].Seq
	alts := 0
	for trial := 0; trial < 60; trial++ {
		k := []int{4, 11, 19, 25, 32}[trial%5]
		n := 3*k + rng.Intn(120)
		if k == 4 {
			n = 12 + rng.Intn(12) // keeps the k=4 graph's walk small
		}
		var window []byte
		if trial%2 == 0 {
			window = randomSeq(n)
		} else {
			at := rng.Intn(len(ref) - n)
			window = slices.Clone(ref[at : at+n])
			if hasN(window) {
				continue
			}
		}
		reads := variantReads(window, max(k+5, 40))
		check(fmt.Sprintf("trial %d", trial), window, reads, k, 1+trial%3)
		if len(assembleHaplotypes(window, reads, k, 8, 1+trial%3)) > 1 {
			alts++
		}
	}
	if alts < 20 {
		t.Fatalf("weak mix: %d of 60 trials assembled a non-reference haplotype", alts)
	}
	// Reads shorter than k add nothing, and no reads at all leave the
	// reference backbone alone.
	window := randomSeq(80)
	check("short reads", window, [][]byte{window[:10], window[30:48]}, 19, 2)
	check("no reads", window, nil, 19, 2)

	reads := variantReads(window, 60)
	for _, c := range []struct {
		tag    string
		window []byte
		k      int
	}{
		{"k past the range", window, maxK + 1},
		{"window holding N", append(slices.Clone(window[:40]), append([]byte("N"), window[41:]...)...), 19},
		{"window holding a lowercase base", append(slices.Clone(window[:40]), append([]byte("a"), window[41:]...)...), 19},
	} {
		got := assembleHaplotypes(c.window, reads, c.k, 8, 2)
		if len(got) != 1 || !bytes.Equal(got[0], c.window) {
			t.Fatalf("%s: %d haplotypes, want the reference alone", c.tag, len(got))
		}
	}
}
