package bufpool

import "testing"

func TestSlicePoolReuse(t *testing.T) {
	s := GetF64(128)
	if len(s) != 128 {
		t.Fatalf("GetF64(128) len = %d", len(s))
	}
	for i := range s {
		s[i] = float64(i)
	}
	PutF64(s)
	// A smaller request may reuse the slab; the pool never clears, so the
	// caller owns initialization.
	r := GetF64(64)
	if len(r) != 64 {
		t.Fatalf("GetF64(64) len = %d", len(r))
	}
	PutF64(r)
}

func TestSlicePoolOversizedNotRetained(t *testing.T) {
	huge := GetI32(maxRetainElems + 1)
	PutI32(huge) // must not panic; slab is dropped
	if got := GetI32(8); len(got) != 8 {
		t.Fatalf("GetI32(8) len = %d", len(got))
	}
}

func TestSlicePoolTypes(t *testing.T) {
	i := GetI32(16)
	if len(i) != 16 {
		t.Fatalf("GetI32(16) len = %d", len(i))
	}
	PutI32(i)
	// Zero-capacity slices are rejected rather than pooled.
	PutF64(nil)
	PutI32(nil)
}
