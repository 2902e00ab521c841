// Compression demo: shows the effect of GPF's genomic data compression
// (§4.2, Figs 4-6, Table 3 of the paper) on simulated reads — the 2-bit
// sequence packing with an exception list and the delta+Huffman quality
// coding — against a plain field serializer.
package main

import (
	"fmt"
	"log"

	"github.com/gpf-go/gpf/pkg/gpf"
)

func main() {
	ref := gpf.SynthesizeGenome(gpf.DefaultSynthConfig(21, 50000, 1))
	donor := gpf.MutateGenome(ref, gpf.DefaultMutateConfig(22))
	pairs := gpf.SimulateReads(donor, gpf.DefaultSimConfig(23, 12))
	fmt.Printf("%d read pairs (%d bases)\n", len(pairs), 200*len(pairs))

	// Whole-partition serialization, as the engine stores and shuffles it.
	raw, err := gpf.FieldPairCodec{}.Marshal(pairs)
	if err != nil {
		log.Fatal(err)
	}
	packed, err := gpf.GPFPairCodec{}.Marshal(pairs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("field codec:   %8d bytes\n", len(raw))
	fmt.Printf("genomic codec: %8d bytes  (%.2fx smaller)\n",
		len(packed), gpf.CompressionRatio(len(raw), len(packed)))

	// Round-trip check.
	back, err := gpf.GPFPairCodec{}.Unmarshal(packed)
	if err != nil {
		log.Fatal(err)
	}
	if len(back) != len(pairs) || string(back[0].R1.Seq) != string(pairs[0].R1.Seq) {
		log.Fatal("round trip mismatch")
	}
	fmt.Println("round trip: identical")

	// The raw seq/qual block codec, usable standalone. The example read
	// below (Fig 4's) carries an N, which packs as A and comes back from the
	// seq column's exception list; its quality is stored as it is.
	seqs := [][]byte{[]byte("GGTTNCCTA")}
	quals := [][]byte{[]byte("CCCB#FFFF")}
	block, err := gpf.EncodeSeqQualBlock(seqs, quals)
	if err != nil {
		log.Fatal(err)
	}
	s2, q2, err := gpf.DecodeSeqQualBlock(block)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("block codec: %q/%q -> %d bytes -> %q/%q\n",
		seqs[0], quals[0], len(block), s2[0], q2[0])
}
