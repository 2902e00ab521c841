// Package align implements the Aligner stage substrate: a Burrows-Wheeler
// transform / FM-index over the reference genome, exact-match backward
// search, seed-and-extend alignment with banded Smith-Waterman, and a
// paired-end aligner in the style of BWA-MEM (§2.1: the Aligner employs a
// BWT algorithm to index the genome and maps reads against it).
package align

// buildSuffixArray constructs the suffix array of the coded text s by
// induced sorting (SA-IS: Nong, Zhang & Chan 2009), in time and extra space
// linear in len(s). The last symbol must be the sentinel 0 and occur nowhere
// else; the others lie in 1..numSymbols-1.
func buildSuffixArray(s []byte) []int32 {
	sa := make([]int32, len(s))
	sais(s, sa, numSymbols)
	return sa
}

// sais writes the suffix array of s into sa. Symbols lie in 0..k-1 and the
// last one is a unique smallest sentinel. The reduced problem is an int32
// text of LMS-substring names held in sa itself, so one instantiation per
// symbol width serves every recursion level.
func sais[T byte | int32](s []T, sa []int32, k int) {
	n := len(s)
	if n == 1 {
		sa[0] = 0
		return
	}
	// isS[i] reports whether suffix i is S-type (smaller than suffix i+1);
	// an LMS position is an S-type one whose left neighbour is L-type.
	isS := make([]bool, n)
	isS[n-1] = true
	for i := n - 2; i >= 0; i-- {
		isS[i] = s[i] < s[i+1] || s[i] == s[i+1] && isS[i+1]
	}
	isLMS := func(i int32) bool { return i > 0 && isS[i] && !isS[i-1] }
	bkt := make([]int32, k)
	buckets := func(ends bool) {
		clear(bkt)
		for _, c := range s {
			bkt[c]++
		}
		var sum int32
		for c, f := range bkt {
			sum += f
			if ends {
				bkt[c] = sum
			} else {
				bkt[c] = sum - f
			}
		}
	}
	// induce sorts every suffix from the LMS suffixes already placed at
	// their buckets' ends: L-types left to right from the bucket heads, then
	// S-types right to left from the bucket tails.
	induce := func() {
		buckets(false)
		for i := 0; i < n; i++ {
			if j := sa[i] - 1; j >= 0 && !isS[j] {
				sa[bkt[s[j]]] = j
				bkt[s[j]]++
			}
		}
		buckets(true)
		for i := n - 1; i >= 0; i-- {
			if j := sa[i] - 1; j >= 0 && isS[j] {
				bkt[s[j]]--
				sa[bkt[s[j]]] = j
			}
		}
	}

	// Stage 1: sort the LMS substrings by one induced pass from the LMS
	// positions in text order.
	for i := range sa {
		sa[i] = -1
	}
	buckets(true)
	for i := int32(n - 1); i > 0; i-- {
		if isLMS(i) {
			bkt[s[i]]--
			sa[bkt[s[i]]] = i
		}
	}
	induce()

	// Compact the sorted LMS positions into sa[:m] and name each LMS
	// substring by its rank among the distinct ones. No two LMS positions
	// are adjacent, so m <= n/2 and the name of position p fits in
	// sa[m+p/2] without colliding.
	m := 0
	for i := 0; i < n; i++ {
		if isLMS(sa[i]) {
			sa[m] = sa[i]
			m++
		}
	}
	for i := m; i < n; i++ {
		sa[i] = -1
	}
	names, prev := int32(0), int32(-1)
	for i := 0; i < m; i++ {
		p := sa[i]
		if prev < 0 || !equalLMS(s, isS, isLMS, p, prev) {
			names++
			prev = p
		}
		sa[m+int(p)/2] = names - 1
	}
	// The names in text order form the reduced text in sa[n-m:]; its last
	// symbol is the sentinel's name, 0, and unique.
	j := n - 1
	for i := n - 1; i >= m; i-- {
		if sa[i] >= 0 {
			sa[j] = sa[i]
			j--
		}
	}

	// Stage 2: sort the LMS suffixes, recursing while names repeat.
	s1, sa1 := sa[n-m:], sa[:m]
	if int(names) < m {
		sais(s1, sa1, int(names))
	} else {
		for i, c := range s1 {
			sa1[c] = int32(i)
		}
	}
	// Map reduced-text indices back to LMS positions.
	j = 0
	for i := int32(1); i < int32(n); i++ {
		if isLMS(i) {
			s1[j] = i
			j++
		}
	}
	for i := range sa1 {
		sa1[i] = s1[sa1[i]]
	}
	for i := m; i < n; i++ {
		sa[i] = -1
	}

	// Stage 3: place the sorted LMS suffixes at their buckets' ends, right to
	// left so none overwrites one not yet moved, and induce the rest.
	buckets(true)
	for i := m - 1; i >= 0; i-- {
		p := sa[i]
		sa[i] = -1
		bkt[s[p]]--
		sa[bkt[s[p]]] = p
	}
	induce()
}

// equalLMS reports whether the LMS substrings at a and b (each running to
// the next LMS position inclusive) are equal in symbols and types. The
// sentinel is unique, so a mismatch always comes before either runs off s.
func equalLMS[T byte | int32](s []T, isS []bool, isLMS func(int32) bool, a, b int32) bool {
	for d := int32(0); ; d++ {
		if s[a+d] != s[b+d] || isS[a+d] != isS[b+d] {
			return false
		}
		if d > 0 && (isLMS(a+d) || isLMS(b+d)) {
			return isLMS(a+d) && isLMS(b+d)
		}
	}
}
