// Package bufpool pools kernel scratch: the pair-HMM's rolling DP rows
// ([]float64) and the fit DP's score matrices ([]int32). These are
// requested once per kernel call — once per region's read × haplotype batch
// in the caller, once per gapped fit in the aligner, the realigner and the
// genotyper — so an unpooled make() shows up directly in the per-call
// allocation profile and in the kernels' ns/cell (see DESIGN.md, "Hot
// kernels").
//
// Pooled slices are returned with the requested length but UNCLEARED: every
// kernel writes each element before it reads it, and skipping the memclr is
// part of the win. Callers that need zeroed memory must clear it
// themselves.
package bufpool

import "sync"

// maxRetainElems caps the element count of slices kept by the pools, so one
// pathological window does not pin its worst-case slab forever.
const maxRetainElems = 1 << 20

// slabPool pools slices of one element type. The pool stores *[]T to avoid
// allocating an interface box per Put (staticcheck SA6002's advice).
type slabPool[T any] struct{ pool sync.Pool }

func (p *slabPool[T]) get(n int) []T {
	if v := p.pool.Get(); v != nil {
		if s := *(v.(*[]T)); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]T, n)
}

func (p *slabPool[T]) put(s []T) {
	if cap(s) == 0 || cap(s) > maxRetainElems {
		return
	}
	s = s[:0]
	p.pool.Put(&s)
}

var (
	f64Pool slabPool[float64]
	i32Pool slabPool[int32]
)

// GetF64 returns a length-n float64 slice with arbitrary contents.
func GetF64(n int) []float64 { return f64Pool.get(n) }

// PutF64 returns a slice obtained from GetF64 to the pool.
func PutF64(s []float64) { f64Pool.put(s) }

// GetI32 returns a length-n int32 slice with arbitrary contents.
func GetI32(n int) []int32 { return i32Pool.get(n) }

// PutI32 returns a slice obtained from GetI32 to the pool.
func PutI32(s []int32) { i32Pool.put(s) }
