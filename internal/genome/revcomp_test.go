package genome

import (
	"bytes"
	"math/rand"
	"testing"
)

func randSeq(rng *rand.Rand, n int) []byte {
	alphabet := []byte("ACGTNacgtnXY-") // incl. lower case and junk bytes
	s := make([]byte, n)
	for i := range s {
		s[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return s
}

// reverseComplementRef is the original per-base implementation, kept as the
// equivalence oracle.
func reverseComplementRef(seq []byte) []byte {
	out := make([]byte, len(seq))
	for i, b := range seq {
		out[len(seq)-1-i] = Complement(b)
	}
	return out
}

// TestKernelReverseComplementEquivalence: the table-driven two-pointer kernel
// must be byte-identical to the reference on every input, including odd
// lengths, empty input and non-ACGT bytes.
func TestKernelReverseComplementEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for c := 0; c < 300; c++ {
		seq := randSeq(rng, rng.Intn(200))
		want := reverseComplementRef(seq)
		got := ReverseComplement(seq)
		if !bytes.Equal(got, want) {
			t.Fatalf("len %d: fast %q != reference %q", len(seq), got, want)
		}
	}
	// complementTab must be Complement, byte for byte.
	for b := 0; b < 256; b++ {
		if complementTab[b] != Complement(byte(b)) {
			t.Fatalf("complementTab[%d] = %q, Complement = %q", b, complementTab[b], Complement(byte(b)))
		}
	}
}

func TestKernelReverseComplementInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for c := 0; c < 100; c++ {
		// On clean ACGT input, revcomp is an involution.
		seq := make([]byte, rng.Intn(100))
		for i := range seq {
			seq[i] = Alphabet[rng.Intn(4)]
		}
		if got := ReverseComplement(ReverseComplement(seq)); !bytes.Equal(got, seq) {
			t.Fatalf("revcomp(revcomp(%q)) = %q", seq, got)
		}
	}
}

func benchSeq(n int) []byte {
	rng := rand.New(rand.NewSource(45))
	s := make([]byte, n)
	for i := range s {
		s[i] = Alphabet[rng.Intn(4)]
	}
	return s
}

func BenchmarkKernelReverseComplementReference(b *testing.B) {
	seq := benchSeq(151)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reverseComplementRef(seq)
	}
}

func BenchmarkKernelReverseComplementFast(b *testing.B) {
	seq := benchSeq(151)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ReverseComplement(seq)
	}
}
