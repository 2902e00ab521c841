// Package kernels holds the process-wide switch for the profile-driven hot
// kernels: the scaled pair-HMM forward pass, the certified ungapped and
// banded fit aligners, the table-driven reverse complement, the
// word-parallel 2-bit pack/unpack, the word-wide quality-block coder and the
// per-bin BQSR apply tables. Each optimized kernel keeps its
// reference implementation in its home package as the equivalence oracle;
// the packages dispatch on Enabled() so one call flips every kernel at once.
//
// The switch is process-global because the kernels live far below the
// engine (per-base loops inside caller, align, cleaner, compress and genome), where
// threading a setting through every call would put a dependency edge from
// leaf packages to the engine. Nothing but its callers writes it: the
// TestKernel* equivalence tests of those packages (and of colfmt, which sees
// the coder through its qual column) and the kernels
// experiment set it and restore it with
//
//	defer kernels.SetEnabled(kernels.SetEnabled(false))
//
// and a pipeline run in between leaves it alone. Flipping it while kernels
// run concurrently is safe (the loads and stores are atomic, and both paths
// agree to the equivalence bounds the kernel property tests assert); it only
// leaves open which kernel a given call picks.
package kernels

import "sync/atomic"

// disabled is the switch state: the zero value means fast kernels ON, so the
// optimized paths are the default.
var disabled atomic.Bool

// Enabled reports whether the optimized kernels are active.
func Enabled() bool { return !disabled.Load() }

// SetEnabled turns the optimized kernels on or off and returns the previous
// state.
func SetEnabled(on bool) (prev bool) {
	return !disabled.Swap(!on)
}
