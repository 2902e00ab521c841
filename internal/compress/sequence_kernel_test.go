package compress

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/gpf-go/gpf/internal/genome"
)

func randBases(rng *rand.Rand, n int, dirty bool) []byte {
	clean := []byte("ACGT")
	junk := []byte("ACGTNacgtn*")
	src := clean
	if dirty {
		src = junk
	}
	s := make([]byte, n)
	for i := range s {
		s[i] = src[rng.Intn(len(src))]
	}
	return s
}

// pack2BitRef is the original per-base packer, kept as the equivalence
// oracle.
func pack2BitRef(dst, seq []byte) []byte {
	var cur byte
	var n uint
	for _, b := range seq {
		code := genome.BaseCode(b)
		if code < 0 {
			code = 0
		}
		cur = cur<<2 | byte(code)
		n++
		if n == 4 {
			dst = append(dst, cur)
			cur, n = 0, 0
		}
	}
	if n > 0 {
		dst = append(dst, cur<<(2*(4-n)))
	}
	return dst
}

// unpack2BitRef is the original table-copy expansion, kept as the
// equivalence oracle. packed must hold (len(dst)+3)/4 bytes.
func unpack2BitRef(dst, packed []byte) {
	length := len(dst)
	i := 0
	for ; i+4 <= length; i += 4 {
		copy(dst[i:i+4], unpack4Tab[packed[i/4]][:])
	}
	if i < length {
		var tail [4]byte
		copy(tail[:], unpack4Tab[packed[i/4]][:])
		copy(dst[i:], tail[:length-i])
	}
}

// TestKernelPack2BitEquivalence: the word-parallel packer must emit exactly
// the reference's bytes for every length (all four tail phases) and for
// non-ACGT input (both substitute code 0), including when appending to a
// non-empty dst.
func TestKernelPack2BitEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for c := 0; c < 400; c++ {
		seq := randBases(rng, rng.Intn(130), c%3 == 0)
		want := pack2BitRef(nil, seq)
		got := Pack2Bit(nil, seq)
		if !bytes.Equal(got, want) {
			t.Fatalf("len %d: fast %x != reference %x", len(seq), got, want)
		}
		// Append semantics: prior dst contents must be preserved.
		prefix := []byte{0xde, 0xad}
		got = Pack2Bit(append([]byte(nil), prefix...), seq)
		want = pack2BitRef(append([]byte(nil), prefix...), seq)
		if !bytes.Equal(got, want) {
			t.Fatalf("len %d with prefix: fast %x != reference %x", len(seq), got, want)
		}
	}
}

// TestKernelUnpack2BitEquivalence: the word-store expansion must fill dst
// byte-identically to the reference for every length phase, and pack→unpack
// must round-trip clean sequences.
func TestKernelUnpack2BitEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for c := 0; c < 400; c++ {
		length := rng.Intn(130)
		packed := make([]byte, (length+3)/4+rng.Intn(3)) // sometimes extra bytes
		rng.Read(packed)
		want := make([]byte, length)
		unpack2BitRef(want, packed)
		got := make([]byte, length)
		if _, err := Unpack2Bit(got, packed); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("len %d: fast %q != reference %q", length, got, want)
		}
		// Round-trip through the public API.
		seq := randBases(rng, length, false)
		rt := make([]byte, length)
		if _, err := Unpack2Bit(rt, Pack2Bit(nil, seq)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rt, seq) {
			t.Fatalf("round-trip %q -> %q", seq, rt)
		}
	}
	if _, err := Unpack2Bit(make([]byte, 9), []byte{0, 0}); err == nil {
		t.Fatal("truncated unpack did not error")
	}
}

func benchPackInputs() (seq, packed []byte) {
	rng := rand.New(rand.NewSource(55))
	seq = randBases(rng, 151, false)
	packed = Pack2Bit(nil, seq)
	return
}

func BenchmarkKernelPack2BitReference(b *testing.B) {
	seq, _ := benchPackInputs()
	dst := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pack2BitRef(dst[:0], seq)
	}
}

func BenchmarkKernelPack2BitFast(b *testing.B) {
	seq, _ := benchPackInputs()
	dst := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Pack2Bit(dst[:0], seq)
	}
}

func BenchmarkKernelUnpack2BitReference(b *testing.B) {
	seq, packed := benchPackInputs()
	dst := make([]byte, len(seq))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		unpack2BitRef(dst, packed)
	}
}

func BenchmarkKernelUnpack2BitFast(b *testing.B) {
	seq, packed := benchPackInputs()
	dst := make([]byte, len(seq))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unpack2Bit(dst, packed); err != nil {
			b.Fatal(err)
		}
	}
}
