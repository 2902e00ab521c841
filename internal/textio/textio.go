// Package textio sizes the record slices the text readers (sam.ReadText,
// fastq.ReadPairs) return. Growing a slice of 100-byte-plus records by append
// doubling copies it a dozen times and can leave half its capacity unused;
// when the input can tell its size, one allocation from the first record's
// length does instead.
package textio

import (
	"io"
	"io/fs"
	"slices"
)

// Remaining reports how many bytes rd still holds when it can tell — an
// in-memory reader's Len, a regular file's size — and 0 otherwise.
func Remaining(rd io.Reader) int64 {
	switch v := rd.(type) {
	case interface{ Len() int }:
		return int64(v.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return 0
}

// Sized returns an empty slice with room for the records an input of size
// bytes holds at recordBytes (> 0) of text each, or nil when size is 0
// (unknown).
// Records of one run differ by a few digits, and append still covers an
// underestimate; the cap here and Trim bound what a short first record can
// cost.
func Sized[T any](size int64, recordBytes int) []T {
	if size <= 0 {
		return nil
	}
	return make([]T, 0, min(size/int64(recordBytes)+1, 1<<20))
}

// Trim gives back the capacity of s when the guess was far over.
func Trim[T any](s []T) []T {
	if cap(s) > 2*len(s) {
		return slices.Clone(s)
	}
	return s
}
