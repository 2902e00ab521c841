package allocbudget

import (
	"fmt"
	"strings"
	"testing"
)

// recorder captures a failure instead of aborting the test.
type recorder struct {
	testing.TB
	failed bool
	msg    string
}

func (r *recorder) Helper() {}
func (r *recorder) Fatalf(format string, args ...any) {
	r.failed = true
	r.msg = fmt.Sprintf(format, args...)
}

var sink []byte

// TestWithinBudgetPasses: a decode that allocates about its input's size
// passes a budget of two bytes per input byte.
func TestWithinBudgetPasses(t *testing.T) {
	input := make([]byte, 64<<10)
	Check(t, len(input), 2, 1024, func() {
		sink = append([]byte(nil), input...)
	})
}

// TestOverBudgetFails: a decode that trusts a length it read allocates far
// past the budget, and the failure names the bytes allocated and the budget.
func TestOverBudgetFails(t *testing.T) {
	input := []byte{0x00, 0x00, 0x40, 0x00} // a 4 MiB length, nothing behind it
	rec := recorder{TB: t}
	Check(&rec, len(input), 16, 1024, func() {
		n := int(input[0]) | int(input[1])<<8 | int(input[2])<<16 | int(input[3])<<24
		sink = make([]byte, n)
	})
	if !rec.failed {
		t.Fatal("a 4 MiB allocation from a 4-byte input passed a 1 088-byte budget")
	}
	if !strings.Contains(rec.msg, "allocated 419") || !strings.Contains(rec.msg, "= 1088") {
		t.Fatalf("failure does not name the allocation and the budget: %s", rec.msg)
	}
}

// TestOneNoisyMeasurementPasses: a measurement inflated once, as another
// goroutine's allocation would inflate it, is taken again, and the decode's
// own allocation is what counts.
func TestOneNoisyMeasurementPasses(t *testing.T) {
	runs := 0
	Check(t, 4, 16, 1024, func() {
		if runs++; runs == 1 {
			sink = make([]byte, 1<<20)
		}
	})
	if runs != 2 {
		t.Fatalf("decode ran %d times, want 2", runs)
	}
}
