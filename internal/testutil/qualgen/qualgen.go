// Package qualgen builds quality-string batches with a prescribed delta
// histogram, for the tests of the quality coder (internal/compress) and of
// the columnar codec's fallback around it (internal/colfmt).
package qualgen

// Fibonacci returns real quality strings (bytes 0..126) whose delta histogram
// is rungs Fibonacci counts 1, 1, 2, 3, 5, …: the largest on delta 0 — one
// long string of zeros — then +1, +2, …, each string a staircase 0, d, 2d, …
// so one short array serves every string of a rung. With the coder's EOF
// symbol as one more count of 1, its Huffman tree is rungs deep, and nothing
// shallower in symbols gets there: 31 rungs are 3.5 million symbols in 46 000
// strings.
func Fibonacci(rungs int) [][]byte {
	const maxQual = 126
	var quals [][]byte
	a, b := 1, 1
	for d := rungs - 1; d > 0; d-- {
		stair := make([]byte, 1+maxQual/d)
		for i := range stair {
			stair[i] = byte(i * d)
		}
		for count := a; count > 0; count -= len(stair) - 1 {
			quals = append(quals, stair[:min(len(stair), count+1)])
		}
		a, b = b, a+b
	}
	return append(quals, make([]byte, a))
}
