// Fixture for gpflint/goleak: goroutines whose exit is not provably tied to
// a lifecycle signal. Loaded under a package path inside internal/engine so
// the analyzer's scope applies.
package goleak

import (
	"context"
	"sync"
)

func use(int) {}

// leakyPump never exits: nothing ever closes work, and the goroutine holds
// no cancellation signal — the PR 5 map-error hazard shape.
func leakyPump(work chan int) {
	go func() { // want "goroutine exit is not tied to a WaitGroup"
		for {
			use(<-work)
		}
	}()
}

func spinForever() {
	for {
	}
}

// leakyNamed launches a package-local function; its body resolves and has no
// lifecycle tie either.
func leakyNamed() {
	go spinForever() // want "goroutine exit is not tied to a WaitGroup"
}

// opaque launches a function value received as a parameter: the body cannot
// be resolved, so the exit cannot be verified.
func opaque(cb func()) {
	go cb() // want "goroutine body cannot be resolved statically"
}

// joined ties exit to a WaitGroup.
func joined(work chan int, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := range work {
			use(v)
		}
	}()
}

// cancellable selects on a close-only channel.
func cancellable(work chan int, done chan struct{}) {
	go func() {
		for {
			select {
			case <-done:
				return
			case v := <-work:
				use(v)
			}
		}
	}()
}

// drained exits when the producer closes work.
func drained(work chan int) {
	go func() {
		for v := range work {
			use(v)
		}
	}()
}

// contextBound waits on ctx.Done(), the canonical cancel channel.
func contextBound(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

// viaLocalClosure launches a local bound to a function literal: a function
// value, so the body is not resolved even though this one would exit.
func viaLocalClosure(done chan struct{}) {
	waiter := func() {
		<-done
	}
	go waiter() // want "goroutine body cannot be resolved statically"
}

// suppressedHandshake is bounded by other means (a deadline on the
// connection); the directive must keep the line diagnostic-free.
func suppressedHandshake(work chan int) {
	//lint:ignore gpflint/goleak handshake read is deadline-bounded, exits on timeout
	go func() {
		use(<-work)
	}()
}
