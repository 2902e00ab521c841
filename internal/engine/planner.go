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

// planMeta is the type-erased plan node of one lazy dataset (a recorded chain
// of narrow ops). The generic constructors in lineage.go capture their
// dataset in the run closure; forcing needs only the graph shape and a way to
// run the node once.
type planMeta struct {
	// inputs are the plan nodes of the chain's inputs; nil entries are inputs
	// that were born materialized.
	inputs []*planMeta
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
// its own chain; later calls return the sticky first result.
func (m *planMeta) force() error {
	m.once.Do(func() {
		if m.err = m.forceShared(); m.err == nil {
			m.err = m.run()
		}
		m.done.Store(true)
	})
	return m.err
}

// forceShared walks the unforced ancestors and forces, producers first, every
// one that more than one consumer was recorded over, so a shared prefix is
// computed once and read by all its consumers. Single-consumer ancestors stay
// lazy and fuse into this node's tasks. The first error aborts the walk and
// is returned by the forcing action; it stays sticky on the node that failed.
func (m *planMeta) forceShared() error {
	for _, in := range m.inputs {
		if in == nil || in.done.Load() {
			continue
		}
		next := in.forceShared
		if in.children.Load() > 1 {
			next = in.force
		}
		if err := next(); err != nil {
			return err
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
