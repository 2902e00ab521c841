package experiments

import (
	"bytes"
	"fmt"
	"time"

	"github.com/gpf-go/gpf/internal/core"
	"github.com/gpf-go/gpf/internal/kernels"
	"github.com/gpf-go/gpf/internal/vcf"
	"github.com/gpf-go/gpf/internal/workload"
)

// KernelsRun is one side of the fast-kernel ablation: the full WGS pipeline
// with the hot kernels either enabled or reverted to their reference
// implementations.
type KernelsRun struct {
	Mode  string // "fast" or "reference"
	Wall  time.Duration
	Calls int
}

// KernelsResult reproduces the hot-kernel ablation (see DESIGN.md, "Hot
// kernels"): the WGS pipeline with kernels.SetEnabled on versus off.
// Because every kernel is either exactly equivalent (banded alignment via
// its certificate, table/word-parallel base ops, the word-wide quality coder
// every shuffle block goes through, the per-bin BQSR tables) or equivalent
// far below the genotyper's decision thresholds (scaled pair-HMM), the
// emitted VCF must be byte-identical; Kernels enforces that, making the
// ablation double as an end-to-end determinism check. The one switch flips
// the cleaner's and the codec's kernels with the rest, so this single pair of
// WGS runs covers them too.
type KernelsResult struct {
	Fast      KernelsRun
	Reference KernelsRun
	// VCFIdentical records the byte-comparison of the two runs' VCF output
	// (always true when Kernels returns without error).
	VCFIdentical bool
}

// Speedup is the end-to-end wall-time ratio reference/fast.
func (r *KernelsResult) Speedup() float64 {
	if r.Fast.Wall <= 0 {
		return 0
	}
	return float64(r.Reference.Wall) / float64(r.Fast.Wall)
}

// Kernels runs the WGS pipeline with fast kernels on and off and verifies
// the VCF outputs are byte-identical.
func Kernels(s Scale) (*KernelsResult, error) {
	res := &KernelsResult{}
	var vcfFast, vcfRef []byte
	for _, mode := range []struct {
		name    string
		disable bool
		run     *KernelsRun
		out     *[]byte
	}{
		{"fast", false, &res.Fast, &vcfFast},
		{"reference", true, &res.Reference, &vcfRef},
	} {
		run, data, err := kernelsWGS(s, mode.disable)
		if err != nil {
			return nil, fmt.Errorf("kernels %s: %w", mode.name, err)
		}
		run.Mode = mode.name
		*mode.run = run
		*mode.out = data
	}
	res.VCFIdentical = bytes.Equal(vcfFast, vcfRef)
	if !res.VCFIdentical {
		return nil, fmt.Errorf("kernels: VCF output differs between fast and reference kernels (%d vs %d bytes)",
			len(vcfFast), len(vcfRef))
	}
	return res, nil
}

// kernelsWGS runs one side of the ablation and serializes its calls.
func kernelsWGS(s Scale, disable bool) (KernelsRun, []byte, error) {
	d := s.dataset(workload.WGS)
	rt := s.newRuntime(d)
	defer kernels.SetEnabled(kernels.SetEnabled(!disable))

	start := time.Now()
	ds := core.PairsToRDD(rt, d.Pairs, rt.NumPartitions)
	wgs := core.BuildWGSPipeline(rt, ds, false)
	if err := wgs.Pipeline.Run(); err != nil {
		return KernelsRun{}, nil, err
	}
	calls, err := core.CollectVCF(rt, wgs.VCF)
	if err != nil {
		return KernelsRun{}, nil, err
	}
	wall := time.Since(start)

	var buf bytes.Buffer
	names := make([]string, d.Ref.NumContigs())
	for i := range names {
		names[i] = d.Ref.Contig(i).Name
	}
	if err := vcf.Write(&buf, vcf.NewHeader(names, d.Ref.Lengths(), "sample"), calls); err != nil {
		return KernelsRun{}, nil, err
	}
	return KernelsRun{Wall: wall, Calls: len(calls)}, buf.Bytes(), nil
}

// Format renders the ablation table.
func (r *KernelsResult) Format() []string {
	out := []string{"Hot-kernel ablation: WGS pipeline, fast kernels vs reference implementations"}
	for _, run := range []*KernelsRun{&r.Fast, &r.Reference} {
		out = append(out, row(run.Mode,
			fmt.Sprintf("wall %8s", run.Wall.Round(time.Millisecond)),
			fmt.Sprintf("calls %4d", run.Calls)))
	}
	out = append(out,
		fmt.Sprintf("end-to-end speedup: %.2fx", r.Speedup()),
		fmt.Sprintf("VCF byte-identical: %v", r.VCFIdentical))
	return out
}
