// Package bufpool pools scratch memory for hot paths. Its bytes.Buffers serve
// the two encoders that cannot size their output up front — the engine's
// GobCodec fallback and the census's KeyedIntCodec — which would otherwise
// grow a fresh buffer through several doublings per call. Callers Get a reset
// buffer, encode into it, copy the bytes out, and Put it back. colfmt does
// not use it: it encodes its columns first and allocates each block once at
// its exact size. The slice pools (slicepool.go) serve the aligner's and the
// pair-HMM's per-call scratch.
package bufpool

import (
	"bytes"
	"sync"
)

// maxRetain caps the capacity of buffers returned to the pool; occasional
// giant partitions should not pin their worst-case buffer forever.
const maxRetain = 4 << 20

var pool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Get returns an empty buffer from the pool.
func Get() *bytes.Buffer {
	b := pool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// Put returns a buffer to the pool, dropping oversized ones.
func Put(b *bytes.Buffer) {
	if b == nil || b.Cap() > maxRetain {
		return
	}
	pool.Put(b)
}

// Bytes copies the buffer's contents into an exact-size slice, safe to
// retain after the buffer is Put back.
func Bytes(b *bytes.Buffer) []byte {
	if b.Len() == 0 {
		return nil
	}
	return append(make([]byte, 0, b.Len()), b.Bytes()...)
}
