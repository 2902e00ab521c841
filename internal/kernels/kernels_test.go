package kernels_test

import (
	"testing"

	"github.com/gpf-go/gpf/internal/core"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/kernels"
)

// TestSwitch: the fast kernels are on by default, SetEnabled returns the
// previous state, and a pipeline run does not write the switch.
func TestSwitch(t *testing.T) {
	if !kernels.Enabled() {
		t.Fatal("fast kernels must be on by default")
	}
	if prev := kernels.SetEnabled(false); !prev {
		t.Fatal("SetEnabled(false) must report the previous state (on)")
	}
	defer kernels.SetEnabled(true)
	if err := core.NewPipeline("empty", core.NewRuntime(engine.NewContext(1), nil)).Run(); err != nil {
		t.Fatal(err)
	}
	if kernels.Enabled() {
		t.Fatal("Pipeline.Run turned the fast kernels back on")
	}
	if prev := kernels.SetEnabled(true); prev {
		t.Fatal("SetEnabled(true) must report the previous state (off)")
	}
}
