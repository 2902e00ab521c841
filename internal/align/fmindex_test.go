package align

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"github.com/gpf-go/gpf/internal/genome"
)

// oracleBWT rebuilds the byte-per-symbol BWT (values 0..4) the packed blocks
// replaced, for rankScan to count in.
func oracleBWT(ref *genome.Reference) []byte {
	text, _ := codedText(ref)
	bwt := make([]byte, len(text))
	for i, p := range suffixArrayDoubling(text) {
		bwt[i] = text[(int(p)+len(text)-1)%len(text)]
	}
	return bwt
}

// rankScan is the reference rank: occurrences of c in bwt[:i] by counting.
func rankScan(bwt []byte, c byte, i int) int32 {
	return int32(bytes.Count(bwt[:i], []byte{c}))
}

// TestKernelFMIndexRankOracle: the popcount rank over packed blocks must
// equal a byte scan of the BWT for every symbol and every prefix, at text
// lengths on both sides of a block boundary — including exact multiples of
// the stride, where rank at row n reads a block holding no symbols — and with
// the sentinel row in the first, a middle and the last block.
func TestKernelFMIndexRankOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	// where names the block the case needs the sentinel row in: "first",
	// "middle", "last", or "" for wherever it falls.
	check := func(tag string, seq []byte, where string) {
		t.Helper()
		ref := genome.NewReference([]genome.Contig{{Name: "t", Seq: seq}})
		idx, err := BuildFMIndex(ref)
		if err != nil {
			t.Fatal(err)
		}
		bwt := oracleBWT(ref)
		if got := int32(bytes.IndexByte(bwt, sentinel)); got != idx.primary {
			t.Fatalf("%s: primary = %d, sentinel sits in row %d", tag, idx.primary, got)
		}
		b, last := int(idx.primary)/occCheckpoint, (idx.n-1)/occCheckpoint
		if where == "first" && b != 0 || where == "last" && b != last || where == "middle" && (b == 0 || b == last) {
			t.Fatalf("%s: sentinel row %d is in block %d of 0..%d, case needs the %s", tag, idx.primary, b, last, where)
		}
		// scan[c][i] is the oracle for every prefix; rank answers two rows per
		// call, so each row is paired with itself, its neighbour, the row one
		// block on and the last row — same block and different blocks.
		var scan [numSymbols][]int32
		for c := byte(0); c < numSymbols; c++ {
			scan[c] = make([]int32, idx.n+1)
			for i := range scan[c] {
				scan[c][i] = rankScan(bwt, c, i)
			}
		}
		for i := 0; i <= idx.n; i++ {
			for c := byte(1); c < numSymbols; c++ {
				for _, j := range []int{i, min(i+1, idx.n), min(i+occCheckpoint, idx.n), idx.n} {
					lo, hi := idx.rank(uint64(c-1), int32(i), int32(j))
					if lo != scan[c][i] || hi != scan[c][j] {
						t.Fatalf("%s (len %d): rank(%d, %d, %d) = %d, %d, byte scan = %d, %d",
							tag, len(seq), c, i, j, lo, hi, scan[c][i], scan[c][j])
					}
				}
			}
			if i < idx.n {
				if got, want := idx.lf(int32(i)), idx.counts[bwt[i]]+scan[bwt[i]][i]; got != want {
					t.Fatalf("%s (len %d): lf(%d) = %d, byte scan = %d", tag, len(seq), i, got, want)
				}
			}
		}
	}
	for _, n := range []int{1, 63, 64, 65, 127, 128, 4096} {
		check("random", randomBases(rng, n), "")
		// The whole text sorts first among the suffixes when it opens with
		// the longest A run and last when it opens with the longest T run.
		first := append(bytes.Repeat([]byte("A"), min(n, 12)), randomBases(rng, n-min(n, 12))...)
		check("sentinel in first block", first, "first")
		last := append(bytes.Repeat([]byte("T"), min(n, 12)), randomBases(rng, n-min(n, 12))...)
		check("sentinel in last block", last, "last")
	}
	check("sentinel in a middle block", append([]byte("G"), randomBases(rng, 4095)...), "middle")
}

// stepwiseSearch is BackwardSearch without the k-mer table: one rank step
// per pattern base, from the whole text.
func stepwiseSearch(x *FMIndex, pattern []byte) Interval {
	lo, hi := int32(0), int32(x.n)
	for i := len(pattern) - 1; i >= 0; i-- {
		bc := genome.BaseCode(pattern[i])
		if bc < 0 {
			return Interval{}
		}
		lo, hi = x.rank(uint64(bc), lo, hi)
		if lo >= hi {
			return Interval{}
		}
		lo += x.counts[bc+1]
		hi += x.counts[bc+1]
	}
	return Interval{Lo: lo, Hi: hi}
}

// TestKernelFMIndexSearchLocateOracle: BackwardSearch intervals must equal
// the table-free stepwise search's, Lo and Hi, and their appendLocate
// positions a naive scan of the indexed text, for k-mers that occur once,
// many times and never; k-mers holding N never match and lowercase bases
// match as uppercase. It runs at reference lengths whose k-mer table is
// absent (k = 0), small (k = 2), mid-sized (k = 5) and the benchmark's
// (k = 7 at 100 kb), with pattern lengths k−1, k and k+1 among random ones,
// and N or lowercase bases inside the pattern's last k bases, the part the
// table answers.
func TestKernelFMIndexSearchLocateOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, c := range []struct {
		ref    *genome.Reference
		k      int
		trials int
	}{
		{genome.NewReference([]genome.Contig{{Name: "t", Seq: randomBases(rng, 12)}}), 0, 200},
		{genome.NewReference([]genome.Contig{{Name: "t", Seq: randomBases(rng, 70)}}), 2, 400},
		{genome.Synthesize(genome.DefaultSynthConfig(55, 6000, 2)), 5, 1000},
		{genome.Synthesize(genome.DefaultSynthConfig(57, 100000, 2)), 7, 1000},
	} {
		idx, err := BuildFMIndex(c.ref)
		if err != nil {
			t.Fatal(err)
		}
		if idx.kmerLen != c.k {
			t.Fatalf("%d-base reference: k-mer table length %d, want %d", c.ref.TotalLen(), idx.kmerLen, c.k)
		}
		// The text as the index sees it: contigs concatenated, non-ACGT as A.
		coded, _ := codedText(c.ref)
		text := make([]byte, len(coded)-1)
		for i := range text {
			text[i] = genome.Alphabet[coded[i]-1]
		}
		present, absent := 0, 0
		for trial := 0; trial < c.trials; trial++ {
			k := max(1, []int{c.k - 1, c.k, c.k + 1, 1 + rng.Intn(24)}[trial%4])
			// tail is an offset among the pattern's last k bases, or its
			// last base when there is no table.
			tail := func() int { return k - 1 - rng.Intn(min(k, max(c.k, 1))) }
			var pat []byte
			switch trial / 4 % 5 {
			case 0, 1: // drawn from the text, across contig joins too
				k = min(k, len(text))
				at := rng.Intn(len(text) - k + 1)
				pat = bytes.Clone(text[at : at+k])
			case 2: // random: short ones occur, long ones almost never
				pat = randomBases(rng, k)
			case 3: // an N empties the interval, in the table's part too
				pat = randomBases(rng, k)
				if trial%2 == 0 {
					pat[tail()] = 'N'
				} else {
					pat[rng.Intn(k)] = 'N'
				}
			case 4: // lowercase matches as uppercase
				at := rng.Intn(len(text) - min(k, len(text)) + 1)
				pat = bytes.Clone(text[at:min(at+k, len(text))])
				k = len(pat)
				pat[tail()] += 'a' - 'A'
			}
			iv := idx.BackwardSearch(pat)
			if want := stepwiseSearch(idx, pat); iv != want {
				t.Fatalf("k=%d pattern %q: BackwardSearch = %+v, stepwise search = %+v", c.k, pat, iv, want)
			}
			var want []int64
			if upper := bytes.ToUpper(pat); !bytes.Contains(upper, []byte("N")) {
				for at := 0; ; at++ {
					next := bytes.Index(text[at:], upper)
					if next < 0 {
						break
					}
					at += next
					want = append(want, int64(at))
				}
			}
			if iv.Size() != len(want) {
				t.Fatalf("k=%d pattern %q: interval size %d, naive scan finds %d", c.k, pat, iv.Size(), len(want))
			}
			got := idx.appendLocate(nil, iv, len(want)+1)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("k=%d pattern %q: appendLocate = %v, naive scan = %v", c.k, pat, got, want)
			}
			if len(want) > 0 {
				present++
			} else {
				absent++
			}
		}
		if present < c.trials/5 || absent < c.trials/5 {
			t.Fatalf("k=%d: weak mix: %d present, %d absent of %d", c.k, present, absent, c.trials)
		}
	}
}
