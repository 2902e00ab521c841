package align

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/gpf-go/gpf/internal/genome"
)

// suffixArrayDoubling is the reference suffix array: prefix doubling over
// (rank, rank k on) pairs with a comparison sort, O(n log² n). It was the
// index's builder before SA-IS and stays as the oracle SA-IS must equal.
func suffixArrayDoubling[T byte | int32](s []T) []int32 {
	n := len(s)
	sa := make([]int32, n)
	rank := make([]int32, n)
	tmp := make([]int32, n)
	for i := 0; i < n; i++ {
		sa[i] = int32(i)
		rank[i] = int32(s[i])
	}
	for k := 1; ; k *= 2 {
		key := func(i int32) (int32, int32) {
			second := int32(-1)
			if int(i)+k < n {
				second = rank[int(i)+k]
			}
			return rank[i], second
		}
		sort.Slice(sa, func(a, b int) bool {
			r1a, r2a := key(sa[a])
			r1b, r2b := key(sa[b])
			if r1a != r1b {
				return r1a < r1b
			}
			return r2a < r2b
		})
		tmp[sa[0]] = 0
		for i := 1; i < n; i++ {
			r1a, r2a := key(sa[i-1])
			r1b, r2b := key(sa[i])
			tmp[sa[i]] = tmp[sa[i-1]]
			if r1a != r1b || r2a != r2b {
				tmp[sa[i]]++
			}
		}
		copy(rank, tmp)
		if int(rank[sa[n-1]]) == n-1 {
			break
		}
	}
	return sa
}

// lmsDepth returns how many levels SA-IS recurses on s: 0 when its LMS
// substrings are all distinct, else one more than on the text of their
// names. It names the substrings in the oracle's order of the LMS suffixes,
// which ranks distinct LMS substrings as SA-IS's first induced pass does.
func lmsDepth[T byte | int32](s []T) int {
	n := len(s)
	isS := make([]bool, n)
	isS[n-1] = true
	for i := n - 2; i >= 0; i-- {
		isS[i] = s[i] < s[i+1] || s[i] == s[i+1] && isS[i+1]
	}
	isLMS := func(i int) bool { return i > 0 && isS[i] && !isS[i-1] }
	// substring returns the LMS substring at p: through the next LMS
	// position, or the sentinel alone.
	substring := func(p int) []T {
		q := p + 1
		for q < n && !isLMS(q) {
			q++
		}
		return s[p:min(q+1, n)]
	}
	name := map[int]int32{}
	var prev []T
	names := int32(0)
	for _, p := range suffixArrayDoubling(s) {
		if !isLMS(int(p)) {
			continue
		}
		if sub := substring(int(p)); names == 0 || !slices.Equal(sub, prev) {
			names++
			prev = sub
		}
		name[int(p)] = names - 1
	}
	if int(names) == len(name) {
		return 0
	}
	var reduced []int32
	for p := 1; p < n; p++ {
		if isLMS(p) {
			reduced = append(reduced, name[p])
		}
	}
	return 1 + lmsDepth(reduced)
}

// codedFrom returns the coded text of bases with its sentinel.
func codedFrom(bases []byte) []byte {
	ref := genome.NewReference([]genome.Contig{{Name: "t", Seq: bases}})
	text, _ := codedText(ref)
	return text
}

// checkSuffixArray fails t unless SA-IS equals the doubling oracle on the
// coded text and, for a non-empty text, the index built from each has the
// same packed BWT, samples, sentinel row and C array.
func checkSuffixArray(t *testing.T, tag string, text []byte) {
	t.Helper()
	want := suffixArrayDoubling(text)
	if got := buildSuffixArray(text); !slices.Equal(got, want) {
		t.Fatalf("%s (len %d): SA-IS differs from the doubling oracle", tag, len(text))
	}
	if len(text) == 1 {
		return
	}
	seq := make([]byte, len(text)-1)
	for i, c := range text[:len(seq)] {
		seq[i] = genome.Alphabet[c-1]
	}
	ref := genome.NewReference([]genome.Contig{{Name: "t", Seq: seq}})
	got, err := BuildFMIndex(ref)
	if err != nil {
		t.Fatal(err)
	}
	coded, starts := codedText(ref)
	oracle := indexFromSA(ref, coded, starts, want)
	if !slices.Equal(got.blocks, oracle.blocks) || !slices.Equal(got.saSample, oracle.saSample) ||
		got.primary != oracle.primary || got.counts != oracle.counts || got.n != oracle.n {
		t.Fatalf("%s (len %d): index differs from the one built on the doubling oracle", tag, len(text))
	}
}

// fibonacci returns the Fibonacci word over A and C of length n, a text of
// nested tandem repeats.
func fibonacci(n int) []byte {
	a, b := "A", "AC"
	for len(b) < n {
		a, b = b, b+a
	}
	return []byte(b[:n])
}

// TestKernelSuffixArrayOracle: SA-IS must equal prefix doubling on
// synthetic references, on every length 1..300 of one-symbol, period-2,
// period-3 and random texts, and on tandem repeats that recurse at least two
// levels; the FM-index built from each must be the same index.
func TestKernelSuffixArrayOracle(t *testing.T) {
	for _, seed := range []int64{201, 42, 7} {
		for _, size := range []int{1000, 100000} {
			ref := genome.Synthesize(genome.DefaultSynthConfig(seed, size, 2))
			text, _ := codedText(ref)
			checkSuffixArray(t, fmt.Sprintf("synthetic seed %d", seed), text)
		}
	}
	rng := rand.New(rand.NewSource(61))
	for n := 1; n <= 300; n++ {
		checkSuffixArray(t, "one symbol", codedFrom([]byte(strings.Repeat("G", n))))
		checkSuffixArray(t, "period 2", codedFrom([]byte(strings.Repeat("CA", n)[:n])))
		checkSuffixArray(t, "period 3", codedFrom([]byte(strings.Repeat("TAC", n)[:n])))
		checkSuffixArray(t, "random", codedFrom(randomBases(rng, n)))
	}
	for _, n := range []int{1000, 4181, 20000} {
		text := codedFrom(fibonacci(n))
		if d := lmsDepth(text); d < 2 {
			t.Fatalf("Fibonacci text of %d bases recurses %d levels, the case needs 2 or more", n, d)
		}
		checkSuffixArray(t, "Fibonacci", text)
	}
	// Tandem copies of a unit with a point change per copy: repeats whose
	// reduced texts repeat again.
	unit := randomBases(rng, 37)
	var tandem []byte
	for i := 0; i < 400; i++ {
		copyOf := slices.Clone(unit)
		copyOf[i%len(unit)] = "ACGT"[i%4]
		tandem = append(tandem, copyOf...)
	}
	if d := lmsDepth(codedFrom(tandem)); d < 2 {
		t.Fatalf("tandem text recurses %d levels, the case needs 2 or more", d)
	}
	checkSuffixArray(t, "tandem", codedFrom(tandem))
}

// FuzzSuffixArray: any byte string, read as bases (b%4), gives the same
// suffix array and index under SA-IS and the doubling oracle. The seed
// corpus in testdata/fuzz holds the empty text, one base, runs and periods
// crossing an occurrence block, a Fibonacci word that recurses deeply,
// tandem copies with point changes and random bytes.
func FuzzSuffixArray(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		text := make([]byte, len(data)+1)
		for i, b := range data {
			text[i] = b%4 + 1
		}
		checkSuffixArray(t, "fuzz", text)
	})
}

// TestBuildFMIndexRefusesLongText: a text past int32 positions is refused
// with an error naming the limit, and the largest addressable one is not.
func TestBuildFMIndexRefusesLongText(t *testing.T) {
	if err := checkTextLen(math.MaxInt32); err != nil {
		t.Fatalf("text of 2^31-1 positions refused: %v", err)
	}
	err := checkTextLen(math.MaxInt32 + 1)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(maxTextLen-1)) {
		t.Fatalf("text of 2^31 positions: error %v, want one naming the limit %d", err, maxTextLen-1)
	}
}
