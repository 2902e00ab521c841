package engine

import (
	"sync"
	"sync/atomic"
)

// The lazy plan graph — and nothing else: field masks never reach the plan
// (a narrow op reads its input whole; see effects.go for the ops that narrow
// their own decode).
//
// What there is to plan is which lazy nodes must materialize on their own
// instead of fusing into their consumer: exactly those more than one consumer
// was recorded over (computing a shared prefix once). planMeta is that graph.
// Every lazy node has one input, so the graph is a forest of chains: a shared
// prefix can have several consumers, but nothing joins them again.

// planMeta is the type-erased plan node of one lazy dataset (a recorded chain
// of narrow ops). The generic constructors in lineage.go capture their
// dataset in the run closure; forcing needs only the graph shape and a way to
// run the node once.
type planMeta struct {
	// input is the plan node of the chain's input; nil when the input was
	// born materialized, and once this node has run.
	input *planMeta
	// children counts the consumers recorded over this node (lazy narrow ops,
	// codec forks). Recording only counts — nothing forces at that point.
	children atomic.Int32

	// once/err/done give the node run-exactly-once semantics shared by Force
	// and sticky-error reads.
	once sync.Once
	err  error
	done atomic.Bool
	// run materializes the node: its fused chain as one stage.
	run func() error
}

// force materializes the node exactly once — shared ancestors first, then
// its own chain; later calls return the sticky first result. Once it has run
// the node lets go of its input edge and its run closure (which captures the
// dataset and, through its plan, the ancestors): forceShared stops at a done
// node, so nothing walks the edge again.
func (m *planMeta) force() error {
	m.once.Do(func() {
		if m.err = m.forceShared(); m.err == nil {
			m.err = m.run()
		}
		m.input, m.run = nil, nil
		m.done.Store(true)
	})
	return m.err
}

// forceShared walks up the unforced ancestors to the first one that more
// than one consumer was recorded over and forces it, so a shared prefix is
// computed once and read by all its consumers (its own force walks on above
// it). Single-consumer ancestors on the way stay lazy and fuse into this
// node's tasks. An error is returned by the forcing action; it stays sticky on
// the node that failed.
func (m *planMeta) forceShared() error {
	for in := m.input; in != nil && !in.done.Load(); in = in.input {
		if in.children.Load() > 1 {
			return in.force()
		}
	}
	return nil
}

// claim records one more consumer over the node. Nil-safe: materialized
// inputs have no plan node and need no claim.
func (m *planMeta) claim() {
	if m != nil {
		m.children.Add(1)
	}
}
