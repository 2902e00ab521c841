// Package leakcheck verifies that a test leaves no goroutines behind. It
// snapshots the running goroutines before the work under test, then polls
// until every goroutine created since has exited — failing with the leaked
// goroutines' stacks, not just a count.
//
// Identity-based diffing beats the NumGoroutine comparison it replaces: a
// test that leaks one goroutine while an unrelated one exits keeps the count
// level and slips through, and on failure a bare count says nothing about
// what leaked. It is how the engine's and the transport's tests check that
// every goroutine they start is joined or cancelled.
//
//	base := leakcheck.Snapshot()
//	runWorkUnderTest()
//	base.Check(t)
package leakcheck

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// TB is the subset of testing.TB leakcheck needs; tests of leakcheck itself
// substitute a recorder.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
}

// Baseline is the set of goroutines alive at Snapshot time.
type Baseline struct {
	ids map[int64]bool
}

// Snapshot records the identity of every currently running goroutine.
func Snapshot() Baseline {
	ids := make(map[int64]bool)
	for id := range stacks() {
		ids[id] = true
	}
	return Baseline{ids: ids}
}

type config struct {
	timeout time.Duration
	ignores []string
}

// Option adjusts a Check call.
type Option func(*config)

// Timeout sets how long Check waits for goroutines to drain before failing
// (default 5s — teardown paths legitimately take grace periods).
func Timeout(d time.Duration) Option {
	return func(c *config) { c.timeout = d }
}

// IgnoreContaining excludes goroutines whose stack contains substr —
// long-lived infrastructure the test knowingly starts (pollers, pools) that
// is not owned by the code under test.
func IgnoreContaining(substr string) Option {
	return func(c *config) { c.ignores = append(c.ignores, substr) }
}

// Check polls until every goroutine started after the Snapshot has exited,
// then returns. On timeout it fails the test with the full stack of each
// leaked goroutine.
func (b Baseline) Check(t TB, opts ...Option) {
	t.Helper()
	cfg := config{timeout: 5 * time.Second}
	for _, opt := range opts {
		opt(&cfg)
	}
	deadline := time.Now().Add(cfg.timeout)
	var leaked []string
	for {
		leaked = leaked[:0]
		for id, stack := range stacks() {
			if b.ids[id] || ignored(stack, cfg.ignores) {
				continue
			}
			leaked = append(leaked, stack)
		}
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("leakcheck: %d goroutine(s) leaked after %v:\n\n%s",
		len(leaked), cfg.timeout, strings.Join(leaked, "\n\n"))
}

func ignored(stack string, ignores []string) bool {
	for _, s := range ignores {
		if strings.Contains(stack, s) {
			return true
		}
	}
	return false
}

// stacks captures all goroutine stacks, keyed by goroutine ID.
func stacks() map[int64]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	out := make(map[int64]string)
	for _, blk := range strings.Split(strings.TrimSpace(string(buf)), "\n\n") {
		var id int64
		if _, err := fmt.Sscanf(blk, "goroutine %d ", &id); err == nil {
			out[id] = blk
		}
	}
	return out
}
